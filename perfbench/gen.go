package main

import (
	"math"
	"math/rand"

	treesched "treesched"
	"treesched/internal/model"
	"treesched/internal/workload"
)

// Workload shapes. Each generated input is a pure function of the run's
// seed; the program under test receives only the generated instances.
var (
	// coldShape: three random trees over one vertex set, every demand may
	// use every tree, so the whole instance is one conflict component.
	coldShape = workload.TreeConfig{
		Vertices: 1024, Trees: 3, Demands: 1536, ProfitRatio: 16,
		AccessMin: 3, AccessMax: 3,
	}
	// serveShape: a fleet of disjoint networks, each demand pinned to one.
	serveShape = workload.TreeConfig{
		Vertices: 256, Trees: 16, Demands: 1536, ProfitRatio: 16,
		AccessMin: 1, AccessMax: 1,
	}
	// distShape: a larger fleet of small networks, each demand pinned to one.
	distShape = workload.TreeConfig{
		Vertices: 64, Trees: 32, Demands: 2048, ProfitRatio: 16,
		AccessMin: 1, AccessMax: 1,
	}
)

const (
	coldPool = 16 // instances cold-contended cycles through
	distPool = 8  // instances dist-fleet cycles through

	serveSubmitters = 2 // closed-loop clients on serve-fleet
	serveChurn      = 8 // departures and arrivals per submission
)

// genInstance is one generated input in both forms: the model instance the
// traced pipeline feeds to engine.BuildTreeItems, and the public Instance
// the untraced operation passes to treesched.Solve. Both carry the same
// trees and demands in the same order, so demand ids agree.
type genInstance struct {
	model *model.Instance
	inst  *treesched.Instance
}

// genPool draws n instances of one shape from the seed.
func genPool(shape workload.TreeConfig, n int, seed int64) ([]genInstance, error) {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]genInstance, n)
	for k := range pool {
		m, err := workload.RandomTreeInstance(shape, rng)
		if err != nil {
			return nil, err
		}
		in, err := publicInstance(m)
		if err != nil {
			return nil, err
		}
		pool[k] = genInstance{model: m, inst: in}
	}
	return pool, nil
}

// publicInstance rebuilds a model instance through the public API.
func publicInstance(m *model.Instance) (*treesched.Instance, error) {
	in := treesched.NewInstance(m.NumVertices)
	if err := addTrees(in, m); err != nil {
		return nil, err
	}
	for _, d := range m.Demands {
		in.AddDemand(d.U, d.V, d.Profit, treesched.Access(d.Access...))
	}
	return in, nil
}

func addTrees(in *treesched.Instance, m *model.Instance) error {
	for _, t := range m.Trees {
		es := t.Edges()
		edges := make([][2]int, len(es))
		for i, e := range es {
			edges[i] = [2]int{e.U, e.V}
		}
		if _, err := in.AddTree(edges); err != nil {
			return err
		}
	}
	return nil
}

// churnScript is one serve-fleet submitter's stream of submissions. The
// k-th submitter owns the networks q ≡ k (mod serveSubmitters); its j-th
// submission churns network nets[j mod len(nets)]: it removes the
// serveChurn oldest live demands the submitter has there and adds
// serveChurn fresh ones pinned to the same network. Arrivals and the
// network sequence depend only on (seed, k); which ids leave is fixed by
// arrival order, so the script is the same however the two submitters
// interleave.
type churnScript struct {
	rng  *rand.Rand
	nets []int
	next int // index of the next submission
}

func newChurnScript(seed int64, k int) *churnScript {
	s := &churnScript{rng: rand.New(rand.NewSource(seed*1000003 + int64(k) + 1))}
	for q := k; q < serveShape.Trees; q += serveSubmitters {
		s.nets = append(s.nets, q)
	}
	return s
}

// step is one scripted submission before removal ids are resolved.
type step struct {
	net int
	add []treesched.NewDemand
}

func (s *churnScript) nextStep() step {
	st := step{net: s.nets[s.next%len(s.nets)]}
	s.next++
	st.add = make([]treesched.NewDemand, serveChurn)
	for i := range st.add {
		u := s.rng.Intn(serveShape.Vertices)
		v := s.rng.Intn(serveShape.Vertices - 1)
		if v >= u {
			v++
		}
		st.add[i] = treesched.NewDemand{
			U: u, V: v,
			Profit: math.Exp(s.rng.Float64() * math.Log(serveShape.ProfitRatio)),
			Access: []int{st.net},
		}
	}
	return st
}
