package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzSnapshotFile writes arbitrary bytes as a directory's snapshot:
// Open must return a store or an error, never panic. A store it returns
// must close cleanly.
//
// CI runs this as a fuzz smoke leg beside FuzzSnapshotNames.
func FuzzSnapshotFile(f *testing.F) {
	for _, c := range corruptSnapshots {
		f.Add([]byte(c.snap))
	}
	f.Add([]byte(snapHeaderV1 + " seq=3 pairs=1 isolated=1\na\tb\nc:T\n#graph\na:T\tp\tb:T\nb:T\tq\t\"v\"\n"))
	f.Add([]byte(goodV2))
	v1, err := os.ReadFile(filepath.Join("testdata", "v1", snapName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, SyncNone)
		if err != nil {
			return
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
