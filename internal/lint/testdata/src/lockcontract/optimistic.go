package lockcontract

// Fixtures for the optimistic-plan contract (rule 4): footprint
// recording happens OFF the plan mutex, revalidation happens UNDER it.

// footprint mirrors the planner's read-recording type by name; rule 4
// matches its methods by receiver type and the fpXxx helpers by name.
type footprint struct {
	epochs map[int]uint64
}

func (fp *footprint) observe(si int, e uint64) {
	fp.epochs[si] = e
}

type planStore struct {
	pl planner
}

func (s *planStore) fpPresent(fp *footprint, n int) bool {
	fp.observe(n, 0)
	return false
}

func (s *planStore) revalidate(fp *footprint) bool {
	return len(fp.epochs) == 0
}

// Recording off the mutex, revalidating under it: the contract.
func (s *planStore) planOptimistically(fp *footprint) bool {
	s.fpPresent(fp, 1)
	fp.observe(2, 0)
	s.pl.mu.Lock()
	ok := s.revalidate(fp)
	s.pl.mu.Unlock()
	return ok
}

// An exclusive plan is the one footprint recorded under the mutex: the
// whole plan function runs with every shard admitted, so its reads are
// stable and it needs no revalidation. It is a call of the plan
// function, not of a recorder, and the rule lets it through.
func (s *planStore) planDelta(fp *footprint) {
	s.fpPresent(fp, 1)
	fp.observe(2, 0)
}

func (s *planStore) planExclusively(fp *footprint) {
	s.pl.mu.Lock()
	s.planDelta(fp)
	s.pl.mu.Unlock()
}

// Recording under the mutex re-serializes planning.
func (s *planStore) recordUnderLock(fp *footprint) {
	s.pl.mu.Lock()
	s.fpPresent(fp, 1) // want "footprint recording .* under the plan mutex"
	fp.observe(2, 0)   // want "footprint recording .* under the plan mutex"
	s.pl.mu.Unlock()
}

// A deferred unlock keeps the region open to the end of the function.
func (s *planStore) recordUnderDeferredLock(fp *footprint) {
	s.pl.mu.Lock()
	defer s.pl.mu.Unlock()
	s.fpPresent(fp, 1) // want "footprint recording .* under the plan mutex"
}

// Revalidating without the mutex proves nothing.
func (s *planStore) revalidateUnlocked(fp *footprint) bool {
	return s.revalidate(fp) // want "revalidation outside the plan mutex"
}

// Revalidating after the unlock is outside the locked interval.
func (s *planStore) revalidateAfterUnlock(fp *footprint) bool {
	s.pl.mu.Lock()
	s.pl.mu.Unlock()
	return s.revalidate(fp) // want "revalidation outside the plan mutex"
}
