package lint

import "testing"

func TestMapOrder(t *testing.T) {
	testAnalyzer(t, MapOrder, "maporder")
}

func TestLockContract(t *testing.T) {
	// Three fixture packages, one per sub-rule: blocking calls under
	// the plan mutex, shard internals without the shard lock, and
	// mutation from a read-only engine package.
	testAnalyzer(t, LockContract, "lockcontract", "internal/graph", "internal/chase")
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
