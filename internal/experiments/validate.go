package experiments

import (
	"fmt"
	"strings"
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
