// Golden file for lockdiscipline: release on every return path, no
// re-lock while held, and honored +locked contracts.
package locktest

import "sync"

type table struct {
	mu sync.Mutex
	n  int
}

// leak forgets the unlock on its early-return path.
func (t *table) leak(cond bool) int {
	t.mu.Lock()
	if cond {
		return t.n // want "returns while still holding t.mu"
	}
	t.mu.Unlock()
	return 0
}

// relock acquires a mutex it already holds.
func (t *table) relock() {
	t.mu.Lock()
	t.mu.Lock() // want "self-deadlock"
	t.mu.Unlock()
	t.mu.Unlock()
}

// bumpLocked uses the naming convention without documenting which lock
// protects it.
func (t *table) bumpLocked() { // want "named .Locked but carries no"
	t.n++
}

// applyLocked folds delta into the counter. Caller synchronizes.
//
// +locked:t.mu
func (t *table) applyLocked(delta int) {
	t.n += delta
}

// misuse calls a +locked function without the contract's lock.
func (t *table) misuse(delta int) {
	t.applyLocked(delta) // want "requires holding t.mu"
}

// use is the sanctioned shape: acquire, defer release, call through.
func (t *table) use(delta int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.applyLocked(delta)
}

// balanced releases on both paths and stays silent.
func (t *table) balanced(cond bool) int {
	t.mu.Lock()
	if cond {
		t.mu.Unlock()
		return 1
	}
	t.mu.Unlock()
	return 0
}

// fataler is the shape of testing.TB's Fatal, which the checker does not
// know ends the path.
type fataler interface{ Fatal(args ...any) }

// unlockThenFatal releases on a branch that ends in tb.Fatal while the
// other path still holds the lock and releases it after the if: the
// paths disagree, so the merge stops judging the lock and stays silent.
func (t *table) unlockThenFatal(tb fataler, failed bool) {
	t.mu.Lock()
	if failed {
		t.mu.Unlock()
		tb.Fatal("failed")
	}
	t.mu.Unlock()
}
