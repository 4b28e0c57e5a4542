package manager

import (
	"fmt"
	"path/filepath"
	"strings"
)

// ValidateName rejects empty names and anything that is not a plain
// path component: dataset names become home directory names
// (<dir>/<name>/), so separators, "." and ".." must never reach
// filepath.Join where they could escape the storage directory. Every
// route that parses a {name}, every create and every boot scan shares
// this one validator.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("dataset name required")
	}
	// Backslash is rejected explicitly: it is not a separator on this
	// platform's filepath, but datasets may be copied to one where it
	// is.
	if name != filepath.Base(name) || name == "." || name == ".." || strings.ContainsAny(name, `/\`) {
		return fmt.Errorf("dataset name %q must be a plain path component (no separators)", name)
	}
	return nil
}
