package experiments

import (
	"strings"
	"testing"
)

func TestValidateNames(t *testing.T) {
	if err := ValidateNames(ExperimentIDs()); err != nil {
		t.Fatalf("all known ids rejected: %v", err)
	}
	err := ValidateNames([]string{"fig13", "fig99"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "fig99") || !strings.Contains(err.Error(), "fig13") {
		t.Fatalf("error should name the bad id and list valid ones: %v", err)
	}
	// The list is the `-exp all` order.
	want := `unknown experiment "fig99" (valid: all, table2, table4, fig5, fig13, fig14, fig15, fig16, ` +
		`fig17, fig18, fig19, fig20, fig21, table5, fig22, ablation, load)`
	if err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

func TestValidateOverrides(t *testing.T) {
	if err := ValidateOverrides(0, 0, 0, 0); err != nil {
		t.Fatalf("zero overrides rejected: %v", err)
	}
	if err := ValidateOverrides(8, 4, 0.01, 2); err != nil {
		t.Fatalf("valid overrides rejected: %v", err)
	}
	cases := []struct {
		cores, parallel int
		sf, mb          float64
		want            string
	}{
		{cores: -1, want: "-cores"},
		{parallel: -2, want: "-parallel"},
		{sf: -0.5, want: "-sf"},
		{mb: -1, want: "-mb"},
	}
	for _, c := range cases {
		err := ValidateOverrides(c.cores, c.parallel, c.sf, c.mb)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ValidateOverrides(%d,%d,%g,%g) = %v, want error naming %s",
				c.cores, c.parallel, c.sf, c.mb, err, c.want)
		}
	}
}
