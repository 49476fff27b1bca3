package waluse

import (
	"os"

	"internal/graph"
	"internal/wal"
)

func dropAppend(s *wal.Store, rec []byte) {
	s.Append(rec) // want "dropped"
}

func dropGroupCommit(s *wal.Store) {
	s.Commit() // want "dropped"
}

func blankGroupCommit(s *wal.Store) {
	_ = s.Commit() // want "assigned to _"
}

func blankAdd(s *wal.Store) uint64 {
	seq, _ := s.Add(nil) // want "assigned to _"
	return seq
}

func dropRename(tmp, final string) {
	os.Rename(tmp, final) // want "dropped"
}

func blankSnapshot(s *wal.Store) {
	_ = s.WriteSnapshot() // want "assigned to _"
}

func blankOpen(dir string) *wal.Store {
	st, _ := wal.Open(dir) // want "assigned to _"
	return st
}

func dropFsync(f *os.File) {
	f.Sync() // want "dropped"
}

func dropCommit(commit graph.DeltaCommit) {
	commit() // want "dropped"
}

func handled(s *wal.Store, tmp, final string) error {
	if err := s.Append(nil); err != nil {
		return err
	}
	if _, err := s.Add(nil); err != nil {
		return err
	}
	if err := s.Commit(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	return s.WriteSnapshot()
}

// No error result, nothing to drop.
func seq(s *wal.Store) uint64 {
	return s.Seq()
}

// Deferred and async cleanup paths are out of scope: there is no
// direct result to consume.
func deferred(s *wal.Store) {
	defer s.Close()
}

// os.File.Close is not on the durability path (temp-file cleanup).
func cleanup(f *os.File) {
	f.Close()
}
