package wal

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
)

// The version 1 log, which no writer produces any more, is the magic
// "GKWALOG1", then one frame per delta:
//
//	[len u32][crc u32] payload
//	payload: uvarint seq, uvarint op count, the ops
//
// readLogV1 reads one, and Open rewrites it as version 2 (rewriteV1),
// so a directory written before groups still opens and takes appends.
const logMagicV1 = "GKWALOG1"

// readLogV1 decodes the records of a version 1 log body, stopping at
// the first short or corrupt frame (a torn tail).
func readLogV1(body []byte) []Record {
	var recs []Record
	for rest := body; ; {
		payload, next, ok := nextFrame(rest)
		if !ok {
			return recs
		}
		seq, k := binary.Uvarint(payload)
		if k <= 0 {
			return recs
		}
		ops, trail, err := decodeOps(payload[k:])
		if err != nil || len(trail) != 0 {
			return recs
		}
		recs = append(recs, Record{Seq: seq, Ops: ops})
		rest = next
	}
}

// rewriteV1 replaces the log at path by the version 2 log holding recs,
// each record a group of one: written and fsynced as a temp file,
// renamed into place, and the rename made durable by a directory fsync.
// A crash at any point leaves either log whole.
func rewriteV1(path string, recs []Record) error {
	out := []byte(logMagic)
	group := make([]byte, 0, 256)
	for _, rec := range recs {
		group = encodeOps(append(group[:0], make([]byte, groupHead)...), rec.Ops)
		out = append(out, sealGroup(group, rec.Seq, 1)...)
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rewrite v1 log: %v", err)
	}
	if _, err := f.Write(out); err != nil {
		f.Close()
		return fmt.Errorf("wal: rewrite v1 log: %v", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: rewrite v1 log: fsync: %v", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: rewrite v1 log: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: rewrite v1 log: %v", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("wal: rewrite v1 log: %v", err)
	}
	return nil
}
