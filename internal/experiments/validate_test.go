package experiments

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestParseNames(t *testing.T) {
	for _, spec := range []string{"all", " all "} {
		got, err := ParseNames(spec)
		if err != nil || !reflect.DeepEqual(got, ExperimentIDs()) {
			t.Fatalf("ParseNames(%q) = %v, %v; want every id in order", spec, got, err)
		}
	}
	got, err := ParseNames(" fig13,table2 , load")
	if want := []string{"fig13", "table2", "load"}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseNames = %v, %v; want %v", got, err, want)
	}
	for _, spec := range []string{"", " ", "fig13,", "fig13,,fig5", "fig13,all"} {
		if got, err := ParseNames(spec); err == nil {
			t.Errorf("ParseNames(%q) = %v, want an error for the blank or misplaced name", spec, got)
		}
	}
	_, err = ParseNames("fig13,fig99")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// The error names the bad id and lists the valid ones in `-exp all` order.
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
	if err := ValidateOverrides(0, 0, 1000, 1<<20); err != nil {
		t.Fatalf("large but representable sizes rejected: %v", err)
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
		{mb: math.NaN(), want: "-mb"},
		{mb: math.Inf(1), want: "-mb"},
		{mb: math.Inf(-1), want: "-mb"},
		{mb: 1e300, want: "-mb"},
		{mb: math.MaxInt / (1 << 20) * 2, want: "-mb"},
		{sf: math.NaN(), want: "-sf"},
		{sf: math.Inf(1), want: "-sf"},
		{sf: 1e300, want: "-sf"},
	}
	for _, c := range cases {
		err := ValidateOverrides(c.cores, c.parallel, c.sf, c.mb)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ValidateOverrides(%d,%d,%g,%g) = %v, want error naming %s",
				c.cores, c.parallel, c.sf, c.mb, err, c.want)
		}
	}
}
