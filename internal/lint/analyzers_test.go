package lint

import "testing"

func TestMapOrder(t *testing.T) {
	testAnalyzer(t, MapOrder, "maporder")
}

func TestLockContract(t *testing.T) {
	// One fixture package per rule: shard internals without the shard
	// lock, and mutation from a read-only engine package.
	testAnalyzer(t, LockContract, "internal/graph", "internal/chase")
}

func TestObsHandle(t *testing.T) {
	testAnalyzer(t, ObsHandle, "obsuse")
}

func TestWalErr(t *testing.T) {
	testAnalyzer(t, WalErr, "waluse")
}

func TestWallTime(t *testing.T) {
	testAnalyzer(t, WallTime, "walltime")
}

func TestIgnoreDirective(t *testing.T) {
	testAnalyzer(t, MapOrder, "ignorecase")
}
