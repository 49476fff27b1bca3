// Package wal shims graphkeys/internal/wal for the fixtures: Store's
// error-returning durability methods, matched by path suffix.
package wal

type Store struct{}

func Open(dir string) (*Store, error) { return nil, nil }

func (s *Store) Append(rec []byte) error { return nil }
func (s *Store) Commit() error           { return nil }
func (s *Store) WriteSnapshot() error    { return nil }
func (s *Store) Close() error            { return nil }

// Add does no I/O, but a failed Add must not be ignored either.
func (s *Store) Add(ops []string) (uint64, error) { return 0, nil }

// Seq returns no error; calls to it are never flagged.
func (s *Store) Seq() uint64 { return 0 }
