package lint

import "testing"

func TestMapOrder(t *testing.T) {
	testAnalyzer(t, MapOrder, "maporder")
}

func TestReadOnly(t *testing.T) {
	testAnalyzer(t, ReadOnly, "internal/chase")
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
