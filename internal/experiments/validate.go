package experiments

import (
	"fmt"
	"strings"
)

// ValidateNames checks a list of experiment names against ExperimentIDs.
func ValidateNames(names []string) error {
	valid := map[string]bool{}
	for _, id := range ExperimentIDs() {
		valid[id] = true
	}
	for _, n := range names {
		if !valid[n] {
			return fmt.Errorf("unknown experiment %q (valid: all, %s)",
				n, strings.Join(ExperimentIDs(), ", "))
		}
	}
	return nil
}

// ValidateOverrides rejects nonsensical CLI overrides before any
// simulation starts. Zero means "no override" for every parameter, so only
// negatives are errors.
func ValidateOverrides(cores, parallel int, sf, mb float64) error {
	if cores < 0 {
		return fmt.Errorf("-cores must be >= 0, got %d", cores)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0, got %d", parallel)
	}
	if sf < 0 {
		return fmt.Errorf("-sf must be >= 0, got %g", sf)
	}
	if mb < 0 {
		return fmt.Errorf("-mb must be >= 0, got %g", mb)
	}
	return nil
}
