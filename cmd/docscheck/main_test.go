package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCheckArchitectureTree: the tree must name every directory under
// internal/ and nothing else; a nested path counts for its top-level
// directory, and internal/ paths outside the Architecture section are not
// the tree.
func TestCheckArchitectureTree(t *testing.T) {
	dir := t.TempDir()
	internal := filepath.Join(dir, "internal")
	for _, pkg := range []string{"dram", "exec", "service/loadgen"} {
		if err := os.MkdirAll(filepath.Join(internal, pkg), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(internal, "doc.go"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	readme := filepath.Join(dir, "README.md")
	for _, tc := range []struct {
		name, text string
		want       []string
	}{
		{"match", "# x\n\n## Architecture\n\n```\n├── internal/dram   d\n├── internal/exec   e\n└── internal/service/loadgen\n```\n", nil},
		{"stale and missing",
			"# x\n\nsee internal/exec\n\n## Architecture\n\n```\n├── internal/dram\n├── internal/program\n└── internal/service\n```\n\n## Next\n\ninternal/exec\n",
			[]string{
				readme + ": Architecture tree names " + internal + "/program, which is not a directory",
				readme + ": Architecture tree omits " + internal + "/exec",
			}},
		{"no tree", "# x\n\n## Architecture\n\nprose only\n\n## Next\n\n```\ninternal/dram\n```\n",
			[]string{readme + `: no fenced tree under "## Architecture"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(readme, []byte(tc.text), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := checkArchitectureTree(readme, internal); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("violations = %q, want %q", got, tc.want)
			}
		})
	}
}

// TestCheckTestNames: a cited test must be declared in some _test.go file.
// Doc citations count up to the first "/", -run patterns split on "|" with
// anchors stripped, '^$' names nothing, and a declaration under testdata/
// does not count.
func TestCheckTestNames(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, text string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("pkg/a_test.go", "package pkg\n\nfunc TestA(t *testing.T) {}\n\nfunc BenchmarkB(b *testing.B) {}\n\nfunc FuzzC(f *testing.F) {}\n")
	write("testdata/old_test.go", "package old\n\nfunc TestGone(t *testing.T) {}\n")
	write("README.md", "`TestA/sub` and `BenchmarkB` pass; `TestMissing` was deleted, twice: `TestMissing`.\n")
	write("ci.yml", "run: go test -run 'TestA|^FuzzC$|TestGone' .\nrun: go test -run '^$' -bench .\n")
	got := checkTestNames(dir, []string{"README.md"}, "ci.yml")
	want := []string{
		"README.md: cites test TestMissing, which no _test.go file declares",
		"ci.yml: cites test TestGone, which no _test.go file declares",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations = %q, want %q", got, want)
	}
}

// TestCheckGoFiles: a cited path resolves from the root and a bare name must
// name some .go file, outside hidden directories; each missing citation is
// reported once per document.
func TestCheckGoFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, text string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/pkg/net.go", "package pkg\n")
	write("cmd/tool/main.go", "package main\n")
	write(".cache/mod/hidden.go", "package mod\n")
	write("README.md", "See `internal/pkg/net.go`, `net.go` and `main.go`; `internal/pkg/compiled.go` "+
		"and `compiled.go` were deleted, `hidden.go` is cached and `net.go` is cited twice.\n")
	write("DESIGN.md", "`internal/pkg/main.go` is in cmd/tool; run `go test ./...`.\n")
	got := checkGoFiles(dir, []string{"README.md", "DESIGN.md"})
	want := []string{
		"README.md: cites internal/pkg/compiled.go, which does not exist",
		"README.md: cites compiled.go, which does not exist",
		"README.md: cites hidden.go, which does not exist",
		"DESIGN.md: cites internal/pkg/main.go, which does not exist",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("violations = %q, want %q", got, want)
	}
}
