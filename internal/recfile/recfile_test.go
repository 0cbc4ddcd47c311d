package recfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestReplace: a failed write leaves the old file and no temp file
// behind; a successful one leaves exactly the new content.
func TestReplace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Replace(path, func(w io.Writer) error {
		io.WriteString(w, "partial")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Replace returned %v, want the write's error", err)
	}
	check := func(want string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
		if ents, _ := os.ReadDir(dir); len(ents) != 1 {
			t.Fatalf("directory holds %d entries, want 1", len(ents))
		}
	}
	check("old")
	if err := Replace(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	check("new")
}
