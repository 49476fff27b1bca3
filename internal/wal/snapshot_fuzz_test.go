package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// FuzzSnapshotFile writes arbitrary bytes as a directory's snapshot, and
// then the same bytes with their trailing CRC-32 fixed up, so they reach
// the table and pair decoders. Open must return a store or an error,
// never panic, and allocate in proportion to the file, not to the counts
// it claims. A store it returns must close cleanly.
//
// CI runs this as a fuzz smoke leg beside FuzzSnapshotNames.
func FuzzSnapshotFile(f *testing.F) {
	for _, c := range corruptSnapshots {
		f.Add([]byte(c.snap))
	}
	f.Add([]byte(snapHeaderV1 + " seq=3 pairs=1 isolated=1\na\tb\nc:T\n#graph\na:T\tp\tb:T\nb:T\tq\t\"v\"\n"))
	f.Add([]byte(goodV2))
	// The good snapshot, but claiming 2^40 pairs.
	f.Add([]byte(snapV2(append(validV2[:len(validV2)-3:len(validV2)-3], 1<<40, "a", "b")...)))
	v1, err := os.ReadFile(filepath.Join("testdata", "v1", snapName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkOpenSnapshot(t, data)
		if n := len(data) - 4; n >= 0 {
			fixed := binary.LittleEndian.AppendUint32(bytes.Clone(data[:n]), crc32.ChecksumIEEE(data[:n]))
			checkOpenSnapshot(t, fixed)
		}
	})
}

// checkOpenSnapshot opens data as a directory's snapshot and checks what
// FuzzSnapshotFile promises.
func checkOpenSnapshot(t *testing.T, data []byte) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := Open(dir, SyncNone)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256*uint64(len(data))+1<<20 {
		t.Fatalf("Open of a %d-byte snapshot allocated %d bytes", len(data), grew)
	}
	if err != nil {
		return
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
