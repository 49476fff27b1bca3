package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"graphkeys/internal/graph"
)

// groupOps is the op list of the i-th delta the group tests log: an
// entity and a literal, so a replay allocates nodes.
func groupOps(i int) []graph.DeltaOp {
	id := fmt.Sprintf("e%d", i)
	return []graph.DeltaOp{
		{Kind: graph.OpAddEntity, ID: id, TypeName: "T"},
		{Kind: graph.OpAddTriple, Subject: id, Pred: "p", Object: fmt.Sprintf("v%d", i), ObjectIsValue: true},
	}
}

// writeGroups logs groups of the given sizes, one Commit each, and
// returns the deltas logged and the log's size after each group.
func writeGroups(t *testing.T, dir string, sizes ...int) (recs []Record, ends []int) {
	t.Helper()
	s, err := Open(dir, SyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range sizes {
		for range n {
			ops := groupOps(len(recs))
			seq, err := s.Add(ops)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, Record{Seq: seq, Ops: ops})
		}
		if err := s.Commit(); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(readLog(t, dir)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return recs, ends
}

// reopenRecords writes data as dir's log, opens it and returns the
// deltas found, checking that Open cut the log after them.
func reopenRecords(t *testing.T, dir string, data []byte) []Record {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, logName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

// TestCrashInsideGroup: a log of three groups, cut at every byte offset
// inside the last group or with any one of its bytes flipped, reopens
// to exactly the first two groups' deltas — a group is recovered whole
// or not at all. Mutant killed: decoding a torn group's deltas up to
// the first bad one.
func TestCrashInsideGroup(t *testing.T) {
	src := t.TempDir()
	recs, ends := writeGroups(t, src, 2, 3, 4)
	whole := readLog(t, src)
	if got := reopenRecords(t, t.TempDir(), whole); !reflect.DeepEqual(got, recs) {
		t.Fatalf("the intact log reopens to %d deltas, want %d", len(got), len(recs))
	}
	want := recs[:5]
	dir := t.TempDir()
	for cut := ends[1]; cut < ends[2]; cut++ {
		if got := reopenRecords(t, dir, whole[:cut]); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d of %d: %d deltas, want the first two groups' %d", cut, ends[2], len(got), len(want))
		}
		if n := len(readLog(t, dir)); n != ends[1] {
			t.Fatalf("cut at %d: Open left %d bytes, want %d", cut, n, ends[1])
		}
	}
	for i := ends[1]; i < ends[2]; i++ {
		flipped := bytes.Clone(whole)
		flipped[i] ^= 0x20
		if got := reopenRecords(t, dir, flipped); !reflect.DeepEqual(got, want) {
			t.Fatalf("byte %d flipped: %d deltas, want the first two groups' %d", i, len(got), len(want))
		}
	}
}

// framedLog is a log of one-delta groups at the given base seqs,
// framed as Commit frames them.
func framedLog(bases ...uint64) []byte {
	log := []byte(logMagic)
	for i, base := range bases {
		group := encodeOps(make([]byte, groupHead), groupOps(i))
		log = append(log, sealGroup(group, base, 1)...)
	}
	return log
}

// TestOpenChecksSeqOrder: a log whose group seqs go back, repeat or
// sit at 0 is refused by name, left as it was, and its directory
// unlocked; a gap between seqs opens.
func TestOpenChecksSeqOrder(t *testing.T) {
	for _, tc := range []struct {
		name  string
		bases []uint64
		err   string // "" when the log opens
	}{
		{"backwards", []uint64{1, 3, 2}, "logs seq 2 after seq 3"},
		{"repeated", []uint64{1, 2, 2}, "logs seq 2 after seq 2"},
		{"seq 0", []uint64{0}, "logs a delta at seq 0"},
		{"seq 0 after 1", []uint64{1, 0}, "logs a delta at seq 0"},
		{"gap", []uint64{1, 4, 9}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log := framedLog(tc.bases...)
			path := filepath.Join(dir, logName)
			if err := os.WriteFile(path, log, 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Open(dir, SyncNone)
			if tc.err == "" {
				if err != nil {
					t.Fatal(err)
				}
				var seqs []uint64
				for _, rec := range s.Records() {
					seqs = append(seqs, rec.Seq)
				}
				if !reflect.DeepEqual(seqs, tc.bases) || s.Seq() != tc.bases[len(tc.bases)-1] {
					t.Errorf("opened at seq %d with Records at %v, want %v", s.Seq(), seqs, tc.bases)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err == nil {
				s.Close()
				t.Fatalf("Open accepted groups at seqs %v", tc.bases)
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.err) {
				t.Fatalf("Open: %v, want an error naming %s and saying %q", err, path, tc.err)
			}
			if !bytes.Equal(readLog(t, dir), log) {
				t.Fatal("Open changed the log it refused")
			}
			lock, err := lockDir(dir)
			if err != nil {
				t.Fatalf("Open left the directory locked: %v", err)
			}
			unlockDir(lock)
		})
	}
}

// FuzzOpenLog writes the magic plus arbitrary bytes as a directory's
// log, and then the magic plus the bytes framed as one group with a
// correct length and CRC-32, so the bytes reach the group and record
// decoders. Open never panics and allocates in proportion to the file, not
// to the counts it claims. When the longest prefix of whole groups
// logs seqs that strictly increase from 1, it keeps that prefix —
// every kept frame decodes, and the frame after them does not — and
// Records are exactly those groups' deltas; otherwise it fails,
// naming the log, and leaves the file as it was and the directory
// unlocked.
//
// CI runs this as a fuzz smoke leg beside FuzzSnapshotFile.
func FuzzOpenLog(f *testing.F) {
	src := f.TempDir()
	s, err := Open(src, SyncNone)
	if err != nil {
		f.Fatal(err)
	}
	for g, n := range []int{1, 3, 2} {
		for i := range n {
			if _, err := s.Add(groupOps(10*g + i)); err != nil {
				f.Fatal(err)
			}
		}
		if err := s.Commit(); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(src, logName))
	if err != nil {
		f.Fatal(err)
	}
	body := valid[len(logMagic):]
	f.Add(body)
	f.Add(body[:len(body)-1])
	f.Add(append(bytes.Clone(body), 0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4))
	f.Add([]byte{})
	// A group of one delta that claims 2^40 ops.
	f.Add(binary.AppendUvarint([]byte{1, 1}, 1<<40))
	// Inputs run one at a time in a fuzz process, and each writes the
	// whole log, so they share one directory.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		frame := binary.LittleEndian.AppendUint32(nil, uint32(len(data)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(data))
		checkOpenLog(t, dir, append([]byte(logMagic), data...))
		checkOpenLog(t, dir, append(append([]byte(logMagic), frame...), data...))
	})
}

// checkOpenLog writes file as dir's log, opens it and checks what
// FuzzOpenLog promises.
func checkOpenLog(t *testing.T, dir string, file []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := os.WriteFile(filepath.Join(dir, logName), file, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, SyncNone)
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256*uint64(len(file))+1<<20 {
		t.Fatalf("Open of a %d-byte log allocated %d bytes", len(file), grew)
	}
	// want is the deltas of the whole groups at the front of the file,
	// end where they end, and ordered whether their seqs strictly
	// increase from 1.
	var want []Record
	end, ordered := len(logMagic), true
	for rest := file[end:]; ; {
		payload, next, ok := nextFrame(rest)
		if !ok {
			break
		}
		group, err := decodeGroup(payload)
		if err != nil {
			break
		}
		for _, rec := range group {
			if rec.Seq == 0 || len(want) > 0 && rec.Seq <= want[len(want)-1].Seq {
				ordered = false
			}
			want = append(want, rec)
		}
		end += len(rest) - len(next)
		rest = next
	}
	if !ordered {
		if err == nil {
			s.Close()
			t.Fatalf("Open accepted a log whose seqs do not increase from 1: %+v", want)
		}
		if !strings.Contains(err.Error(), filepath.Join(dir, logName)) {
			t.Fatalf("Open's refusal does not name the log: %v", err)
		}
		if !bytes.Equal(readLog(t, dir), file) {
			t.Fatal("Open changed a log it refused")
		}
		lock, err := lockDir(dir)
		if err != nil {
			t.Fatalf("Open left the directory locked: %v", err)
		}
		unlockDir(lock)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	recs := s.Records()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if kept := readLog(t, dir); !bytes.Equal(kept, file[:end]) {
		t.Fatalf("Open kept %d bytes of the log, want its %d bytes of whole groups", len(kept), end)
	}
	if len(recs) != len(want) || len(want) > 0 && !reflect.DeepEqual(recs, want) {
		t.Fatalf("Records %+v, want the kept groups' deltas %+v", recs, want)
	}
}
