package runner

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// TestMapMatchesSerial pins the core property: any pool width returns
// exactly what the width-1 loop returns, in the same order.
func TestMapMatchesSerial(t *testing.T) {
	fn := func(i int) string { return fmt.Sprintf("cell-%03d", i*i) }
	want := Map(1, 100, fn)
	for _, width := range []int{2, 3, 8, 100, 0, -1} {
		got := Map(width, 100, fn)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: results differ from serial", width)
		}
	}
}

// TestMapOrderIndependent makes cells finish in scrambled real-time
// order (later indices sleep less) and checks collection still lands
// by index.
func TestMapOrderIndependent(t *testing.T) {
	const n = 16
	got := Map(8, n, func(i int) int {
		time.Sleep(time.Duration(n-i) * time.Millisecond)
		return i * 10
	})
	for i, v := range got {
		if v != i*10 {
			t.Fatalf("slot %d holds %d; scheduling order leaked into results", i, v)
		}
	}
}

// TestMapRunsEveryCellOnce counts invocations under contention.
func TestMapRunsEveryCellOnce(t *testing.T) {
	const n = 200
	var counts [n]atomic.Int64
	Map(8, n, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("cell %d ran %d times", i, c)
		}
	}
}

// TestMapPanicPropagation checks a worker panic resurfaces on the
// calling goroutine with the lowest-index panic value, matching what a
// serial loop would have hit first.
func TestMapPanicPropagation(t *testing.T) {
	for _, width := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("width %d: panic swallowed", width)
				}
				if r != "boom-3" {
					t.Fatalf("width %d: got panic %v, want lowest-index boom-3", width, r)
				}
			}()
			Map(width, 10, func(i int) int {
				if i == 3 || i == 7 {
					panic(fmt.Sprintf("boom-%d", i))
				}
				return i
			})
		}()
	}
}

// TestOrderedDeliversAsSoonAsNext pins the ordered-delivery contract:
// deliver sees every index once, in order, on the calling goroutine (the
// race detector checks the unsynchronized slice), and each as soon as
// every lower index is in. Cell 1 cannot finish until cell 0 has been
// delivered, which a pool that delivered only after draining would
// never do.
func TestOrderedDeliversAsSoonAsNext(t *testing.T) {
	const n = 6
	first := make(chan struct{})
	var got []int
	Ordered(2, n, func(i int) int {
		if i == 1 {
			select {
			case <-first:
			case <-time.After(10 * time.Second):
				return -1
			}
		}
		return i * 10
	}, func(i, v int) {
		if i == 0 {
			close(first)
		}
		if v != i*10 {
			t.Errorf("cell %d delivered %d; cell 1 waited for a delivery that never came", i, v)
		}
		got = append(got, i)
	})
	if want := []int{0, 1, 2, 3, 4, 5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

// TestOrderedPanicDeliversLowerCells: a cell panic still delivers every
// lower-index result, and nothing after it, before re-panicking with the
// lowest-index value — what a serial loop would have done.
func TestOrderedPanicDeliversLowerCells(t *testing.T) {
	for _, width := range []int{1, 4} {
		var got []int
		func() {
			defer func() {
				if r := recover(); r != "boom-3" {
					t.Fatalf("width %d: got panic %v, want boom-3", width, r)
				}
			}()
			Ordered(width, 10, func(i int) int {
				if i == 3 || i == 7 {
					panic(fmt.Sprintf("boom-%d", i))
				}
				return i
			}, func(i, _ int) { got = append(got, i) })
		}()
		if want := []int{0, 1, 2}; !reflect.DeepEqual(got, want) {
			t.Fatalf("width %d: delivered %v before the panic, want %v", width, got, want)
		}
	}
}

// TestOrderedDeliverPanicDrains: a panic in deliver propagates to the
// caller once the pool has drained, and stops the pool pulling cells.
func TestOrderedDeliverPanicDrains(t *testing.T) {
	const n = 1000
	var ran atomic.Int64
	func() {
		defer func() {
			if r := recover(); r != "deliver" {
				t.Fatalf("got panic %v, want deliver", r)
			}
		}()
		Ordered(4, n, func(i int) int {
			ran.Add(1)
			time.Sleep(100 * time.Microsecond)
			return i
		}, func(i, _ int) {
			if i == 2 {
				panic("deliver")
			}
		})
	}()
	if r := ran.Load(); r >= n {
		t.Fatalf("the pool ran all %d cells after deliver panicked", r)
	}
}

// TestMapEmpty and small-n edge cases.
func TestMapEdgeCases(t *testing.T) {
	if got := Map(8, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0 returned %v, want nil", got)
	}
	if got := Map(8, 1, func(i int) int { return 41 + i }); len(got) != 1 || got[0] != 41 {
		t.Fatalf("n=1 returned %v", got)
	}
}

// TestWidth pins the resolution rules Config.Parallel relies on.
func TestWidth(t *testing.T) {
	if w := Width(1, 100); w != 1 {
		t.Fatalf("Width(1,100) = %d", w)
	}
	if w := Width(8, 3); w != 3 {
		t.Fatalf("Width(8,3) = %d; pool must not exceed cells", w)
	}
	if w := Width(0, 100); w < 1 {
		t.Fatalf("Width(0,100) = %d; GOMAXPROCS default must be >= 1", w)
	}
	if w := Width(-5, 0); w != 1 {
		t.Fatalf("Width(-5,0) = %d", w)
	}
}
