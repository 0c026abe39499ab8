package experiments

import (
	"fmt"
	"math"
	"strings"

	"assasin/internal/ssd"
)

// ParseNames parses an -exp flag: comma-separated experiment names, each
// trimmed, or "all" for every experiment in ExperimentIDs order. An empty
// or unknown name is an error.
func ParseNames(spec string) ([]string, error) {
	ids := ExperimentIDs()
	if strings.TrimSpace(spec) == "all" {
		return ids, nil
	}
	valid := map[string]bool{}
	for _, id := range ids {
		valid[id] = true
	}
	names := strings.Split(spec, ",")
	for i, n := range names {
		names[i] = strings.TrimSpace(n)
		if !valid[names[i]] {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)",
				names[i], strings.Join(ids, ", "))
		}
	}
	return names, nil
}

// flashUserBytes is the user capacity of the default flash array: the 7/8
// of its pages the FTL exposes (ftl.UserPages), 7 GiB.
var flashUserBytes = func() float64 {
	c := ssd.DefaultFlashConfig()
	pages := c.Channels * c.ChipsPerChannel * c.BlocksPerChip * c.PagesPerBlock * 7 / 8
	return float64(pages) * float64(c.PageSize)
}()

// ValidateOverrides rejects nonsensical CLI overrides before any
// simulation starts. Zero means "no override" for every parameter, so
// negatives are errors, and so are sizes that are not finite or whose byte
// count exceeds the default flash array's user capacity (-sf counts 1 GiB
// per unit of scale factor, the size of the TPC-H dataset at SF 1).
func ValidateOverrides(cores, parallel int, sf, mb float64) error {
	if cores < 0 {
		return fmt.Errorf("-cores must be >= 0, got %d", cores)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", parallel)
	}
	if err := checkSize("-sf", sf, 1<<30); err != nil {
		return err
	}
	return checkSize("-mb", mb, 1<<20)
}

// checkSize rejects a size of v units of unit bytes that is negative, not
// finite, or larger than the flash array holds.
func checkSize(flag string, v, unit float64) error {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return fmt.Errorf("%s must be a finite number, got %g", flag, v)
	case v < 0:
		return fmt.Errorf("%s must be >= 0, got %g", flag, v)
	case v*unit > flashUserBytes:
		return fmt.Errorf("%s %g is too large: %.0f bytes exceed the flash array's user capacity of %.0f bytes",
			flag, v, v*unit, flashUserBytes)
	}
	return nil
}
