package spare

import (
	"sync"
	"testing"
)

func TestTakeOnEmptyListReportsFalse(t *testing.T) {
	var l List[*int]
	if v, ok := l.Take(); ok || v != nil {
		t.Fatalf("Take on an empty list = %v, %v; want nil, false", v, ok)
	}
	l.Put(new(int))
	l.Take()
	if _, ok := l.Take(); ok {
		t.Fatal("Take on a list emptied by Take reported a value")
	}
}

func TestTakeReturnsLastPutFirst(t *testing.T) {
	var l List[int]
	l.Put(1, 2)
	l.Put(3)
	for _, want := range []int{3, 2, 1} {
		if got, ok := l.Take(); !ok || got != want {
			t.Fatalf("Take = %d, %v; want %d, true", got, ok, want)
		}
	}
}

// TestTakeKeepsNoReference: the slot a Take pops holds the zero value
// afterwards, so a value taken off the list is reachable only through its
// taker.
func TestTakeKeepsNoReference(t *testing.T) {
	var l List[[]byte]
	l.Put(make([]byte, 1), make([]byte, 2), make([]byte, 3))
	l.Take()
	l.Take()
	for i, v := range l.free[:cap(l.free)] {
		if (i == 0) != (v != nil) {
			t.Fatalf("slot %d after two Takes holds %v", i, v)
		}
	}
}

func TestEmptiedClearsUpToCapacity(t *testing.T) {
	type region struct{ name string }
	s := make([]region, 5)
	for i := range s {
		s[i].name = "taken"
	}
	s = s[:3]
	e := Emptied(s)
	if len(e) != 0 || cap(e) != 5 || &e[:1][0] != &s[0] {
		t.Fatalf("Emptied: len %d, cap %d, same array %v; want 0, 5, true", len(e), cap(e), &e[:1][0] == &s[0])
	}
	for i, r := range e[:cap(e)] {
		if r.name != "" {
			t.Errorf("slot %d keeps %q", i, r.name)
		}
	}
}

// TestListOnManyGoroutines: goroutines that each put values on one list and
// take from it until it is drained hand out every value exactly once.
func TestListOnManyGoroutines(t *testing.T) {
	const workers, each = 4, 2000
	var l List[int]
	taken := make([][]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range each {
				l.Put(w*each + i)
				if i%3 == 0 {
					if v, ok := l.Take(); ok {
						taken[w] = append(taken[w], v)
					}
				}
			}
			for v, ok := l.Take(); ok; v, ok = l.Take() {
				taken[w] = append(taken[w], v)
			}
		}()
	}
	wg.Wait()
	seen := make([]bool, workers*each)
	for _, vs := range taken {
		for _, v := range vs {
			if seen[v] {
				t.Fatalf("value %d handed out twice", v)
			}
			seen[v] = true
		}
	}
	for v, handed := range seen {
		if !handed {
			t.Fatalf("value %d never handed out", v)
		}
	}
}
