package kway

import (
	"fmt"
	"testing"

	"fpgapart/internal/hypergraph"
	"fpgapart/internal/topology"
)

// carveFixture returns a tracker on board b and a subcircuit whose net
// i is already placed on spans[i].
func carveFixture(b *topology.Board, spans []topology.SlotSet) (*slotTracker, *hypergraph.Graph) {
	tr := newSlotTracker(b)
	sub := &hypergraph.Graph{Nets: make([]hypergraph.Net, len(spans))}
	for i, span := range spans {
		name := fmt.Sprintf("n%d", i)
		sub.Nets[i].Name = name
		tr.spans[name] = span
	}
	return tr, sub
}

func TestTopologyCarveWeightsLinear(t *testing.T) {
	b, err := topology.Linear(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Nets: empty span, span {0}, span {0,1}. Carve between s0=2, s1=3.
	tr, sub := carveFixture(b, []topology.SlotSet{0, topology.SlotSet(0).Add(0), topology.SlotSet(0).Add(0).Add(1)})
	w := tr.carveWeights(sub, 2, 3)
	if len(w) != 3 {
		t.Fatalf("%d weights, want 3", len(w))
	}
	// Empty span: landing anywhere alone costs 0, cut costs dist(2,3)=1.
	if w[0].Alone != [2]int32{0, 0} || w[0].Both != 1 {
		t.Fatalf("empty-span weights %+v", w[0])
	}
	// Span {0}: extend to 2 costs 2, to 3 costs 3, to both 3.
	if w[1].Alone != [2]int32{2, 3} || w[1].Both != 3 {
		t.Fatalf("span{0} weights %+v", w[1])
	}
	// Span {0,1}: extend to 2 costs 1, to 3 costs 2, to both 2.
	if w[2].Alone != [2]int32{1, 2} || w[2].Both != 2 {
		t.Fatalf("span{0,1} weights %+v", w[2])
	}
	// Only span {0,1} costs anything so far: one hop.
	if c := tr.cost(); c != 1 {
		t.Fatalf("placed span cost = %d, want 1", c)
	}
}

func TestTopologyCarveWeightsCrossbar(t *testing.T) {
	b, err := topology.Crossbar(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// On a crossbar every new slot costs 1 once the span is non-empty,
	// so cutting always costs exactly 1 more than not cutting: the
	// flat-cut regime with a constant offset.
	tr, sub := carveFixture(b, []topology.SlotSet{0, topology.SlotSet(0).Add(0), topology.SlotSet(0).Add(0).Add(1)})
	for i, w := range tr.carveWeights(sub, 2, 3) {
		if w.Both-w.Alone[0] != 1 || w.Both-w.Alone[1] != 1 {
			t.Fatalf("net %d: crossbar weights %+v not cut+1", i, w)
		}
	}
}

func TestCarveWeightsReuseBuffer(t *testing.T) {
	b, err := topology.Mesh(2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, sub := carveFixture(b, make([]topology.SlotSet, 8))
	first := tr.carveWeights(sub, 0, 1)
	second := tr.carveWeights(sub, 0, 1)
	if &first[0] != &second[0] {
		t.Fatal("buffer not reused")
	}
}
