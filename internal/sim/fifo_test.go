package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceQueue drives interleaved pushes and pops through
// growth while the ring is wrapped, against a plain slice queue.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var model []int
	next := 0
	for step := 0; step < 20000; step++ {
		if len(model) == 0 || rng.Intn(5) < 3 {
			q.Push(next)
			model = append(model, next)
			next++
			continue
		}
		if got := q.Pop(); got != model[0] {
			t.Fatalf("step %d: popped %d, want %d", step, got, model[0])
		}
		model = model[1:]
	}
	for len(model) > 0 {
		if got := q.Pop(); got != model[0] {
			t.Fatalf("drain: popped %d, want %d", got, model[0])
		}
		model = model[1:]
	}
	defer func() {
		if recover() == nil {
			t.Fatal("pop from an empty FIFO did not panic")
		}
	}()
	q.Pop()
}
