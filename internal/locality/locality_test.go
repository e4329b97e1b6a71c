package locality_test

import (
	"reflect"
	"testing"

	"avgloc/internal/graph"
	"avgloc/internal/locality"
)

func TestClockAndCommits(t *testing.T) {
	g := graph.Path(3)
	s := locality.New(g)
	if s.Clock() != 0 {
		t.Fatalf("fresh clock %d", s.Clock())
	}
	s.CommitNode(0, 11)
	s.Advance(5, "phase one")
	s.CommitNode(1, 12)
	s.CommitEdge(0, 1)
	s.Advance(3, "phase two")
	s.CommitNodeAt(2, 13, 5)
	s.CommitEdgeAt(1, 0, 6)
	res, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 8 {
		t.Fatalf("rounds %d", res.Rounds)
	}
	wantNode := []int32{0, 5, 5}
	for v, w := range wantNode {
		if res.NodeCommit[v] != w {
			t.Fatalf("node %d commit %d want %d", v, res.NodeCommit[v], w)
		}
	}
	if res.EdgeCommit[0] != 5 || res.EdgeCommit[1] != 6 {
		t.Fatalf("edge commits %v", res.EdgeCommit)
	}
	if !reflect.DeepEqual(res.NodeOut, []int32{11, 12, 13}) || !reflect.DeepEqual(res.EdgeOut, []int32{1, 0}) {
		t.Fatalf("outputs %v / %v", res.NodeOut, res.EdgeOut)
	}
}

func TestErrorsAreSticky(t *testing.T) {
	g := graph.Path(2)
	s := locality.New(g)
	s.CommitNode(0, 1)
	s.CommitNode(0, 2) // double commit
	if _, err := s.Result(); err == nil {
		t.Fatal("double node commit accepted")
	}

	s2 := locality.New(g)
	s2.CommitNodeAt(0, 1, 5) // beyond the clock
	if _, err := s2.Result(); err == nil {
		t.Fatal("future backdated commit accepted")
	}

	s3 := locality.New(g)
	s3.Advance(-1, "negative")
	if _, err := s3.Result(); err == nil {
		t.Fatal("negative charge accepted")
	}

	s4 := locality.New(g)
	s4.CommitEdge(0, 1)
	s4.CommitEdge(0, 0)
	if _, err := s4.Result(); err == nil {
		t.Fatal("double edge commit accepted")
	}
}
