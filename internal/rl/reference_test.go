package rl

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// The reference learning step. refAgent is DQN.Observe as it was before the
// bootstrap memo and the live-column gradient step: every step it evaluates
// the target network on the full batch of sampled next states and takes the
// dense SGD step, velocity buffer and all, over every input column. It shares
// nothing with the product step but the replay ring it samples from and the
// mathx kernels; its networks are its own dense arithmetic (refNet). Driven
// side by side with a DQN on one transition stream, the two online networks
// must stay equal bit for bit after every step.

// refNet is a dense ReLU/identity MLP holding its parameters in the open.
type refNet struct {
	lr   float64
	w, b [][]float64 // per layer: out×in row-major, out
	v    [][]float64 // SGD velocity, written at momentum 0 as the old step did
	vb   [][]float64
}

// netParams is the part of neural's snapshot the reference reads.
type netParams struct {
	Config struct {
		LearningRate float64
	} `json:"config"`
	Weights  [][]float64 `json:"weights"`
	Biases   [][]float64 `json:"biases"`
	VWeights [][]float64 `json:"v_weights"`
}

func paramsOf(t *testing.T, m json.Marshaler) netParams {
	t.Helper()
	blob, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var p netParams
	if err := json.Unmarshal(blob, &p); err != nil {
		t.Fatal(err)
	}
	return p
}

func newRefNet(p netParams) *refNet {
	n := &refNet{lr: p.Config.LearningRate}
	for li := range p.Weights {
		n.w = append(n.w, mathx.Clone(p.Weights[li]))
		n.b = append(n.b, mathx.Clone(p.Biases[li]))
		n.v = append(n.v, make([]float64, len(p.Weights[li])))
		n.vb = append(n.vb, make([]float64, len(p.Biases[li])))
	}
	return n
}

func (n *refNet) copyWeightsFrom(src *refNet) {
	for li := range n.w {
		copy(n.w[li], src.w[li])
		copy(n.b[li], src.b[li])
	}
}

func (n *refNet) weights(li int) *mathx.Matrix {
	out := len(n.b[li])
	return &mathx.Matrix{Rows: out, Cols: len(n.w[li]) / out, Data: n.w[li]}
}

// forward returns every layer's activations for the batch x, dense.
func (n *refNet) forward(t *testing.T, x *mathx.Matrix) []*mathx.Matrix {
	acts := make([]*mathx.Matrix, len(n.w))
	in := x
	for li := range n.w {
		out := mathx.NewMatrix(x.Rows, len(n.b[li]))
		if err := mathx.MatMulTransB(out, in, n.weights(li)); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < out.Rows; r++ {
			row := out.Row(r)
			for o := range row {
				row[o] += n.b[li][o]
				if li < len(n.w)-1 && !(row[o] > 0) {
					row[o] = 0
				}
			}
		}
		acts[li], in = out, out
	}
	return acts
}

// trainBatch is the dense summed-gradient SGD step at momentum 0.
func (n *refNet) trainBatch(t *testing.T, x, target, mask *mathx.Matrix) {
	acts := n.forward(t, x)
	last := len(n.w) - 1
	deltas := make([]*mathx.Matrix, len(n.w))
	deltas[last] = mathx.NewMatrix(x.Rows, len(n.b[last]))
	for r := 0; r < x.Rows; r++ {
		for o, v := range acts[last].Row(r) {
			if m := mask.Row(r)[o]; m != 0 {
				deltas[last].Row(r)[o] = m * (v - target.Row(r)[o])
			}
		}
	}
	for li := last - 1; li >= 0; li-- {
		deltas[li] = mathx.NewMatrix(x.Rows, len(n.b[li]))
		if err := mathx.MatMul(deltas[li], deltas[li+1], n.weights(li+1)); err != nil {
			t.Fatal(err)
		}
		for k, a := range acts[li].Data {
			if !(a > 0) {
				deltas[li].Data[k] *= 0
			}
		}
	}
	for li := range n.w {
		in := x
		if li > 0 {
			in = acts[li-1]
		}
		grad := mathx.NewMatrix(len(n.b[li]), in.Cols)
		if err := mathx.MatMulTransA(grad, deltas[li], in); err != nil {
			t.Fatal(err)
		}
		gb := make([]float64, len(n.b[li]))
		for r := 0; r < x.Rows; r++ {
			for o, d := range deltas[li].Row(r) {
				gb[o] += d
			}
		}
		for _, o := range mathx.NonzeroColumns(deltas[li], nil) {
			base := o * in.Cols
			for i, g := range grad.Row(o) {
				n.v[li][base+i] = 0*n.v[li][base+i] - n.lr*g
				n.w[li][base+i] += n.v[li][base+i]
			}
			n.vb[li][o] = 0*n.vb[li][o] - n.lr*gb[o]
			n.b[li][o] += n.vb[li][o]
		}
	}
}

// refAgent mirrors a DQN with the reference step.
type refAgent struct {
	cfg            DQNConfig
	online, target *refNet
	replay         *ReplayBuffer
	rng            *rand.Rand
	steps, warmup  int
}

func newRefAgent(t *testing.T, d *DQN) *refAgent {
	p := paramsOf(t, d.online)
	return &refAgent{
		cfg: d.cfg, online: newRefNet(p), target: newRefNet(p),
		replay: newReplayFor(d.cfg, d.online.OutputSize()),
		rng:    rand.New(rand.NewSource(d.cfg.Seed)), warmup: d.cfg.WarmupSteps,
	}
}

func (a *refAgent) observe(t *testing.T, tr Transition) {
	a.replay.Add(tr)
	a.steps++
	if a.replay.Len() < a.warmup {
		return
	}
	b := a.cfg.BatchSize
	batch, slots := make([]Transition, b), make([]int, b)
	a.replay.SampleInto(a.rng, batch, slots)
	in, out := len(tr.State), len(a.online.b[len(a.online.b)-1])
	states, nexts := mathx.NewMatrix(b, in), mathx.NewMatrix(b, in)
	for i, s := range batch {
		copy(states.Row(i), s.State)
		if !s.Done && s.NextState != nil {
			copy(nexts.Row(i), s.NextState)
		}
	}
	tq := a.target.forward(t, nexts)[len(a.target.w)-1]
	var oq *mathx.Matrix
	if a.cfg.DoubleDQN {
		oq = a.online.forward(t, nexts)[len(a.online.w)-1]
	}
	targets, mask := mathx.NewMatrix(b, out), mathx.NewMatrix(b, out)
	for i, s := range batch {
		qNext := 0.0
		switch {
		case s.Done:
		case oq != nil:
			if act, err := ArgmaxOver(oq.Row(i), s.NextValid); err == nil {
				qNext = tq.Row(i)[act]
			}
		default:
			qNext = maxOver(tq.Row(i), s.NextValid)
		}
		targets.Row(i)[s.Action] = s.Reward + lambda*qNext
		mask.Row(i)[s.Action] = 1
	}
	a.online.trainBatch(t, states, targets, mask)
	if a.steps%a.cfg.TargetSyncEvery == 0 {
		a.target.copyWeightsFrom(a.online)
	}
}

// adopt mirrors CloneFrom / UnmarshalPolicy: take over a policy's networks.
func (a *refAgent) adopt(online, target netParams) {
	a.online, a.target = newRefNet(online), newRefNet(target)
}

func requireSameOnline(t *testing.T, step int, d *DQN, ref *refAgent) {
	t.Helper()
	p := paramsOf(t, d.online)
	if p.VWeights != nil {
		t.Fatalf("step %d: the product network serializes a velocity buffer at momentum 0", step)
	}
	for li := range p.Weights {
		for k, w := range p.Weights[li] {
			if math.Float64bits(w) != math.Float64bits(ref.online.w[li][k]) {
				t.Fatalf("step %d: layer %d weight %d: product %v, reference %v", step, li, k, w, ref.online.w[li][k])
			}
		}
		for k, b := range p.Biases[li] {
			if math.Float64bits(b) != math.Float64bits(ref.online.b[li][k]) {
				t.Fatalf("step %d: layer %d bias %d: product %v, reference %v", step, li, k, b, ref.online.b[li][k])
			}
		}
	}
}

// randomTransition draws a transition with a sparse state (a third of the
// columns alive, so most of the first layer's gradient columns are zero),
// sometimes terminal, sometimes without a next state.
func randomTransition(rng *rand.Rand, in, actions int) Transition {
	sparse := func() []float64 {
		s := make([]float64, in)
		for k := range s {
			if rng.Intn(3) == 0 {
				s[k] = rng.Float64()
			}
		}
		return s
	}
	tr := Transition{State: sparse(), Action: rng.Intn(actions), Reward: rng.Float64()}
	switch rng.Intn(6) {
	case 0:
		tr.Done = true
		tr.NextState = sparse() // never read: terminal rows bootstrap to 0
	case 1: // no next state: the target is evaluated on a zero row
		tr.NextValid = []int{rng.Intn(actions)}
	default:
		tr.NextState = sparse()
		for act := 0; act < actions; act++ {
			if rng.Intn(2) == 0 {
				tr.NextValid = append(tr.NextValid, act)
			}
		}
	}
	return tr
}

func TestObserveMatchesReferenceBitwise(t *testing.T) {
	const in, actions, steps = 18, 5, 260
	for name, mod := range map[string]func(*DQNConfig){
		"uniform": func(c *DQNConfig) {},
		"double":  func(c *DQNConfig) { c.DoubleDQN = true },
	} {
		t.Run(name, func(t *testing.T) {
			// 260 steps: 13 target syncs, the 64-slot ring wraps four times, and
			// a batch of 16 out of at most 64 transitions (4 at the first
			// learning step) repeats slots in nearly every batch.
			cfg := DQNConfig{Hidden: []int{12, 10}, ReplayCapacity: 64, BatchSize: 16,
				WarmupSteps: 4, TargetSyncEvery: 20, Seed: 5}
			mod(&cfg)
			d, err := NewDQN(in, actions, cfg)
			if err != nil {
				t.Fatal(err)
			}
			donor, err := NewDQN(in, actions, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefAgent(t, d)
			rng := rand.New(rand.NewSource(77))
			repeats := 0
			for step := 1; step <= steps; step++ {
				switch step {
				case 90, 150:
					// A donor whose target has (90) and has not (150) been
					// materialized. Both invalidate every memo: the rows in
					// the ring were written by a network that is gone.
					for i := 0; i < 30; i++ {
						if err := donor.Observe(randomTransition(rng, in, actions)); err != nil {
							t.Fatal(err)
						}
					}
					if step == 150 {
						if donor, err = donor.Clone(); err != nil {
							t.Fatal(err)
						}
					}
					if err := d.CloneFrom(donor); err != nil {
						t.Fatal(err)
					}
					target := paramsOf(t, donor.online)
					if donor.target != nil {
						target = paramsOf(t, donor.target)
					}
					ref.adopt(paramsOf(t, donor.online), target)
					ref.steps, ref.warmup = donor.steps, cfg.BatchSize
				case 205: // five steps short of a sync, so that fresh memos exist
					blob, err := donor.MarshalJSON()
					if err != nil {
						t.Fatal(err)
					}
					if err := d.UnmarshalPolicy(blob); err != nil {
						t.Fatal(err)
					}
					ref.adopt(paramsOf(t, donor.online), paramsOf(t, donor.online))
				}
				if step == 90 || step == 150 || step == 205 {
					for slot, m := range d.replay.meta {
						if m.memoVer == d.targetVer+1 {
							t.Fatalf("step %d: slot %d's memo survived the change of target network", step, slot)
						}
					}
				}
				tr := randomTransition(rng, in, actions)
				if err := d.Observe(tr); err != nil {
					t.Fatal(err)
				}
				ref.observe(t, tr)
				requireSameOnline(t, step, d, ref)
				seen := map[int]bool{}
				for _, slot := range d.slots {
					if seen[slot] {
						repeats++
					}
					seen[slot] = true
				}
			}
			if d.replay.Len() != cfg.ReplayCapacity || repeats == 0 {
				t.Fatalf("the run wrapped the ring to %d of %d and repeated %d slots: nothing was exercised",
					d.replay.Len(), cfg.ReplayCapacity, repeats)
			}
		})
	}
}

// TestStaleMemoWouldDiverge is the control for the test above: freeze the
// target version across a sync — the bug a forgotten bump would be — and the
// product must leave the reference. Without this the equality above could be
// holding because memoised and fresh rows happen to coincide.
func TestStaleMemoWouldDiverge(t *testing.T) {
	const in, actions = 18, 5
	cfg := DQNConfig{Hidden: []int{12, 10}, ReplayCapacity: 64, BatchSize: 16,
		WarmupSteps: 4, TargetSyncEvery: 20, Seed: 5}
	d, err := NewDQN(in, actions, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefAgent(t, d)
	rng := rand.New(rand.NewSource(77))
	for step := 1; step <= 60; step++ {
		tr := randomTransition(rng, in, actions)
		if err := d.Observe(tr); err != nil {
			t.Fatal(err)
		}
		d.targetVer = 0
		ref.observe(t, tr)
	}
	p := paramsOf(t, d.online)
	for li := range p.Weights {
		for k, w := range p.Weights[li] {
			if w != ref.online.w[li][k] {
				return
			}
		}
	}
	t.Fatal("a memo kept across three target syncs changed nothing: the equivalence test cannot see staleness")
}

// TestTrainMatchesObservedEpisodes: the episode loop hands the ring each
// visited state once (a step's state is the previous step's next state) and
// the ring shares the vector; feeding the same steps through Observe, which
// copies both, must train the same policy.
func TestTrainMatchesObservedEpisodes(t *testing.T) {
	cfg := DQNConfig{Hidden: []int{16}, WarmupSteps: 16, BatchSize: 8, TargetSyncEvery: 20,
		ReplayCapacity: 48, Seed: 9}
	policies := make([][]byte, 2)
	for i := range policies {
		env := newChainEnv(6)
		agent, err := NewDQN(env.StateSize(), env.ActionSize(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := agent.Train(env, 40, 30); err != nil {
				t.Fatal(err)
			}
		} else {
			for ep := 0; ep < 40; ep++ {
				state := env.Reset()
				for step := 0; step < 30; step++ {
					valid := env.ValidActions()
					if len(valid) == 0 {
						break
					}
					a, err := agent.SelectAction(state, valid)
					if err != nil {
						t.Fatal(err)
					}
					next, reward, done, err := env.Step(a)
					if err != nil {
						t.Fatal(err)
					}
					tr := Transition{State: state, Action: a, Reward: reward, NextState: next, Done: done}
					if !done {
						tr.NextValid = env.ValidActions()
					}
					if err := agent.Observe(tr); err != nil {
						t.Fatal(err)
					}
					if state = next; done {
						break
					}
				}
			}
		}
		var err2 error
		if policies[i], err2 = agent.MarshalJSON(); err2 != nil {
			t.Fatal(err2)
		}
		if agent.replay.Len() != cfg.ReplayCapacity {
			t.Fatalf("ring holds %d of %d: the run never wrapped it", agent.replay.Len(), cfg.ReplayCapacity)
		}
	}
	if string(policies[0]) != string(policies[1]) {
		t.Fatal("Train and the same steps fed through Observe trained different policies")
	}
}
