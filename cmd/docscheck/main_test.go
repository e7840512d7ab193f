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
