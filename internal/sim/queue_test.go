package sim

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSliceModel replays random TryPut/TryGet/Peek traffic
// on a bounded queue that hovers near full, so its head index keeps
// advancing and compacting, against a plain-slice model: order, length,
// refusals and drop counts must agree at every step.
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine(1)
		const capacity = 100
		q := NewQueue[int](e, capacity)
		var model []int
		var dropped uint64
		next := 0
		for step := 0; step < 5000; step++ {
			switch r := rng.Intn(100); {
			case r < 55:
				ok := q.TryPut(next)
				if want := len(model) < capacity; ok != want {
					t.Fatalf("seed %d step %d: TryPut = %v with %d queued", seed, step, ok, len(model))
				}
				if ok {
					model = append(model, next)
				} else {
					dropped++
				}
				next++
			case r < 95:
				v, ok := q.TryGet()
				if ok != (len(model) > 0) || (ok && v != model[0]) {
					t.Fatalf("seed %d step %d: TryGet = %d,%v; model head %v", seed, step, v, ok, model)
				}
				if ok {
					model = model[1:]
				}
			default:
				v, ok := q.Peek()
				if ok != (len(model) > 0) || (ok && v != model[0]) {
					t.Fatalf("seed %d step %d: Peek = %d,%v; model head %v", seed, step, v, ok, model)
				}
			}
			if q.Len() != len(model) || q.Dropped() != dropped {
				t.Fatalf("seed %d step %d: Len %d Dropped %d, model %d %d", seed, step, q.Len(), q.Dropped(), len(model), dropped)
			}
		}
	}
}

// TestQueueCompactionKeepsOrderAndClearsTail drives a full bounded queue
// through a compaction: FIFO order and the capacity bound hold across
// it, and the vacated slots retain no item.
func TestQueueCompactionKeepsOrderAndClearsTail(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[*int](e, 100)
	vals := make([]int, 200)
	for i := 0; i < 100; i++ {
		vals[i] = i
		if !q.TryPut(&vals[i]) {
			t.Fatalf("TryPut %d refused below capacity", i)
		}
	}
	if q.TryPut(new(int)) {
		t.Fatal("TryPut accepted beyond capacity")
	}
	for i := 0; i < 64; i++ {
		if v, _ := q.TryGet(); *v != i {
			t.Fatalf("TryGet = %d, want %d", *v, i)
		}
	}
	if q.head != 0 || len(q.items) != 36 {
		t.Fatalf("after 64 gets: head %d len %d, want a compaction to 0 36", q.head, len(q.items))
	}
	for _, p := range q.items[len(q.items):cap(q.items)] {
		if p != nil {
			t.Fatal("compaction left an item reference in the vacated tail")
		}
	}
	for i := 100; i < 164; i++ {
		vals[i] = i
		if !q.TryPut(&vals[i]) {
			t.Fatalf("TryPut %d refused with %d queued", i, q.Len())
		}
	}
	if q.TryPut(new(int)) {
		t.Fatal("TryPut accepted beyond capacity after compaction")
	}
	for i := 64; i < 164; i++ {
		if v, ok := q.TryGet(); !ok || *v != i {
			t.Fatalf("TryGet after compaction = %v,%v, want %d", v, ok, i)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("Len() = %d after draining, want 0", q.Len())
	}
}

// TestQueueSteadyStateDoesNotAllocate: once warm, put/get cycles reuse
// the backing array, whether the queue drains every cycle or never
// drains.
func TestQueueSteadyStateDoesNotAllocate(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, 0)
	drain := testing.AllocsPerRun(1000, func() {
		q.TryPut(1)
		q.TryPut(2)
		q.TryGet()
		q.TryGet()
	})
	q.TryPut(0) // one item always left behind: the head never resets
	carry := testing.AllocsPerRun(1000, func() {
		q.TryPut(1)
		q.TryGet()
	})
	if drain != 0 || carry != 0 {
		t.Errorf("steady put/get allocates %.1f (draining) and %.1f (never draining) times per cycle, want 0", drain, carry)
	}
}
