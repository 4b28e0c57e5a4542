package disc_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links; image links share the syntax.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocLinks walks every markdown file at the repo root and under
// docs/ and verifies that relative links resolve to files or
// directories in the checkout, so cross-references between README,
// ROADMAP and the docs/ tree cannot rot. External (scheme-qualified)
// and intra-document (#anchor) links are out of scope. It then checks
// the markdown files Go sources cite (checkGoCitations).
func TestDocLinks(t *testing.T) {
	var files []string
	for _, pattern := range []string{"*.md", "docs/*.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, matches...)
	}
	if len(files) == 0 {
		t.Fatal("no markdown files found; doclint is running in the wrong directory")
	}
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(stripFences(string(data)), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", file, m[1], resolved)
			}
			checked++
		}
	}
	t.Logf("checked %d relative links across %d markdown files", checked, len(files))
	checkGoCitations(t)
}

// mdName matches a markdown file name cited in Go source, with or
// without a directory (README.md, docs/OPERATIONS.md).
var mdName = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// checkGoCitations resolves every markdown file a non-test Go file
// names — in a comment, a string or a usage text — against the repo
// root, docs/ and the citing file's directory, so code comments cannot
// point readers at documents the repo does not have.
func checkGoCitations(t *testing.T) {
	t.Helper()
	checked := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range mdName.FindAllString(string(data), -1) {
			checked++
			if !docExists(name, filepath.Dir(path)) {
				t.Errorf("%s: cites %s, which is neither at the repo root, under docs/ nor beside the file", path, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 {
		t.Fatal("no markdown citations found in Go files; doclint is running in the wrong directory")
	}
	t.Logf("checked %d markdown citations in Go files", checked)
}

// docExists reports whether name resolves against the repo root, docs/
// or dir.
func docExists(name, dir string) bool {
	for _, base := range []string{".", "docs", dir} {
		if _, err := os.Stat(filepath.Join(base, name)); err == nil {
			return true
		}
	}
	return false
}

// stripFences drops ``` fenced code blocks: quoted external material
// (e.g. snippets of other repos' READMEs) is not this repo's linkage.
func stripFences(doc string) string {
	var out []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if !fenced {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
