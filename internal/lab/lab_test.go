package lab

import (
	"fmt"
	"reflect"
	"testing"
)

// TestMapOrder checks that results land at their submission index for a
// range of worker counts, including pools larger than the task count.
func TestMapOrder(t *testing.T) {
	const n = 100
	want := make([]int, n)
	for i := range want {
		want[i] = i * i
	}
	for _, workers := range []int{0, 1, 2, 3, 7, 16, n + 5} {
		got := Map(workers, n, func(i int) int { return i * i })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results out of order: got %v", workers, got)
		}
	}
}

// TestForEachRunsEachIndexOnce checks every index is executed exactly
// once even under a contended pool. Each worker writes only its own
// slot, so the counter slice needs no locking.
func TestForEachRunsEachIndexOnce(t *testing.T) {
	const n = 257
	counts := make([]int, n)
	ForEach(8, n, func(i int) {
		counts[i]++
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times, want 1", i, c)
		}
	}
}

// TestForEachEmpty checks n<=0 is a no-op.
func TestForEachEmpty(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	ForEach(4, -3, func(int) { ran = true })
	if ran {
		t.Fatal("run func called for empty task set")
	}
}

// TestClampWorkers pins the worker-resolution rules.
func TestClampWorkers(t *testing.T) {
	if got := clampWorkers(9, 4); got != 4 {
		t.Fatalf("clampWorkers(9,4) = %d, want 4 (never exceed task count)", got)
	}
	if got := clampWorkers(3, 10); got != 3 {
		t.Fatalf("clampWorkers(3,10) = %d, want 3", got)
	}
	if got := clampWorkers(0, 10); got < 1 {
		t.Fatalf("clampWorkers(0,10) = %d, want >= 1", got)
	}
}

// TestSetDefaultWorkers checks the -parallel binding round-trips and
// that 0 restores the GOMAXPROCS default.
func TestSetDefaultWorkers(t *testing.T) {
	defer SetDefaultWorkers(0)
	SetDefaultWorkers(5)
	if got := DefaultWorkers(); got != 5 {
		t.Fatalf("DefaultWorkers() = %d after SetDefaultWorkers(5)", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got < 1 {
		t.Fatalf("DefaultWorkers() = %d, want >= 1", got)
	}
}

// TestPanicPropagates checks a worker panic surfaces on the caller's
// goroutine, matching serial-loop semantics.
func TestPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
			}()
			ForEach(workers, 16, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
		}()
	}
}

// TestCollectCommitOrder checks commits run serially in submission
// order: an order-sensitive (non-commutative) fold must produce the
// same value at every worker count.
func TestCollectCommitOrder(t *testing.T) {
	fold := func(workers int) string {
		acc := ""
		Collect(workers, 10, func(i int) int { return i }, func(i, r int) {
			acc = fmt.Sprintf("(%s+%d)", acc, r)
		})
		return acc
	}
	want := fold(1)
	for _, workers := range []int{2, 7, 10} {
		if got := fold(workers); got != want {
			t.Fatalf("workers=%d: fold %q != serial %q", workers, got, want)
		}
	}
}

// TestStress hammers the pool with many small tasks to give the race
// detector (make race, CI) something to chew on.
func TestStress(t *testing.T) {
	const n = 5000
	sums := Map(16, n, func(i int) int { return i })
	total := 0
	for _, v := range sums {
		total += v
	}
	if want := n * (n - 1) / 2; total != want {
		t.Fatalf("sum = %d, want %d", total, want)
	}
}
