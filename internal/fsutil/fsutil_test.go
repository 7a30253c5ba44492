package fsutil

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicReplacesContentAndAppliesPerm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(path, []byte("old content, longer than the new"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), 0o600); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new" {
		t.Fatalf("content = %q, want %q", got, "new")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o600 {
		t.Fatalf("perm = %o, want 600", perm)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (stat err = %v)", err)
	}
}

// TestWriteFileAtomicFailedRenameLeavesNoTrace forces the rename to fail
// by making the target a non-empty directory: the write must report the
// error, remove its temporary file and leave the target as it was.
func TestWriteFileAtomicFailedRenameLeavesNoTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	inside := filepath.Join(path, "keep")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(inside, []byte("untouched"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("new"), 0o644); err == nil {
		t.Fatal("rename over a non-empty directory must fail")
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind (stat err = %v)", err)
	}
	if fi, err := os.Stat(path); err != nil || !fi.IsDir() {
		t.Fatalf("target changed: stat = %v, %v", fi, err)
	}
	if got, err := os.ReadFile(inside); err != nil || string(got) != "untouched" {
		t.Fatalf("target contents changed: %q, %v", got, err)
	}
}

func TestSyncMissingPathErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	if err := SyncDir(missing); err == nil {
		t.Error("SyncDir on a missing directory must fail")
	}
	if err := SyncFile(missing); err == nil {
		t.Error("SyncFile on a missing file must fail")
	}
}
