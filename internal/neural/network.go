// Package neural implements a small feed-forward neural network with
// backpropagation, trained by mini-batch SGD with momentum. It is the
// function approximator behind the Deep Q-Network of §III-D ("we leverage
// Deep Q-learning Q(s,a;θ)"), and is deliberately stdlib-only.
package neural

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Common errors.
var (
	// ErrBadTopology is returned for an invalid layer specification.
	ErrBadTopology = errors.New("neural: invalid topology")
	// ErrBadInput is returned when an input's size mismatches the net.
	ErrBadInput = errors.New("neural: input size mismatch")
)

// Activation selects a layer non-linearity.
type Activation int

// Supported activations. ActReLU is the hidden-layer default; ActIdentity is
// the usual output activation for Q-value regression.
const (
	ActReLU Activation = iota + 1
	ActTanh
	ActSigmoid
	ActIdentity
)

func (a Activation) apply(v float64) float64 {
	switch a {
	case ActReLU:
		if v > 0 {
			return v
		}
		return 0
	case ActTanh:
		return math.Tanh(v)
	case ActSigmoid:
		return 1 / (1 + math.Exp(-v))
	default:
		return v
	}
}

// derivative is evaluated at the post-activation value y = f(x), which is
// sufficient for all supported activations.
func (a Activation) derivative(y float64) float64 {
	switch a {
	case ActReLU:
		if y > 0 {
			return 1
		}
		return 0
	case ActTanh:
		return 1 - y*y
	case ActSigmoid:
		return y * (1 - y)
	default:
		return 1
	}
}

// Optimizer selects the weight-update rule.
type Optimizer int

// Supported optimizers.
const (
	// OptSGD is stochastic gradient descent with classical momentum (the
	// default; with Momentum 0 it is plain SGD).
	OptSGD Optimizer = iota + 1
	// OptAdam is Adam (Kingma & Ba) with the standard β₁=0.9, β₂=0.999.
	OptAdam
)

// layer is one dense layer: out = act(W·in + b).
type layer struct {
	in, out int
	weights []float64 // row-major out×in
	bias    []float64
	act     Activation
	// Optimizer state, allocated by the first update that has any
	// (ensureOptState): a network that is only ever evaluated — a DQN target
	// network, an inference replica — or trained by the stateless step carries
	// its weights and nothing else.
	vWeights []float64 // momentum / Adam first-moment buffers
	vBias    []float64
	mWeights []float64 // Adam second-moment buffers
	mBias    []float64
}

// stateless reports whether the optimizer step keeps nothing between updates:
// SGD at momentum 0, where v = 0·v − lr·g; w += v is bitwise w −= lr·g, so the
// velocity buffer is dead state that is neither allocated, written, copied
// nor serialized.
func (n *Network) stateless() bool {
	return n.cfg.Optimizer == OptSGD && n.cfg.Momentum == 0
}

// ensureOptState allocates the layer's optimizer buffers before its first
// stateful update.
func (l *layer) ensureOptState(adam bool) {
	if l.vWeights == nil {
		l.vWeights = make([]float64, len(l.weights))
		l.vBias = make([]float64, len(l.bias))
	}
	if adam && l.mWeights == nil {
		l.mWeights = make([]float64, len(l.weights))
		l.mBias = make([]float64, len(l.bias))
	}
}

// Config describes a network.
type Config struct {
	// Layers lists neuron counts from the input layer to the output layer,
	// e.g. [20, 64, 64, 5].
	Layers []int
	// Hidden is the activation of all hidden layers (default ActReLU).
	Hidden Activation
	// Output is the output-layer activation (default ActIdentity).
	Output Activation
	// LearningRate is the SGD step size (default 0.01).
	LearningRate float64
	// Momentum is the classical momentum coefficient (default 0.9).
	Momentum float64
	// Optimizer selects the update rule (default OptSGD).
	Optimizer Optimizer
	// Seed drives weight initialization.
	Seed int64
}

// Network is a feed-forward multilayer perceptron.
type Network struct {
	layers []*layer
	cfg    Config
	// adamStep counts Adam updates for bias correction.
	adamStep int

	// Scratch buffers reused across Forward/Train calls.
	activations [][]float64
	deltas      [][]float64
	// batch is the reusable workspace behind ForwardBatch/TrainBatch.
	batch batchScratch
}

// New builds a network from cfg with He-style weight initialization.
func New(cfg Config) (*Network, error) {
	if len(cfg.Layers) < 2 {
		return nil, fmt.Errorf("need ≥2 layers, got %d: %w", len(cfg.Layers), ErrBadTopology)
	}
	for i, n := range cfg.Layers {
		if n < 1 {
			return nil, fmt.Errorf("layer %d has %d neurons: %w", i, n, ErrBadTopology)
		}
	}
	if cfg.Hidden == 0 {
		cfg.Hidden = ActReLU
	}
	if cfg.Output == 0 {
		cfg.Output = ActIdentity
	}
	if cfg.LearningRate <= 0 {
		cfg.LearningRate = 0.01
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		cfg.Momentum = 0.9
	}
	if cfg.Optimizer == 0 {
		cfg.Optimizer = OptSGD
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Network{cfg: cfg}
	for i := 0; i < len(cfg.Layers)-1; i++ {
		act := cfg.Hidden
		if i == len(cfg.Layers)-2 {
			act = cfg.Output
		}
		l := &layer{
			in:      cfg.Layers[i],
			out:     cfg.Layers[i+1],
			weights: make([]float64, cfg.Layers[i+1]*cfg.Layers[i]),
			bias:    make([]float64, cfg.Layers[i+1]),
			act:     act,
		}
		// He initialization keeps ReLU activations well-scaled.
		std := math.Sqrt(2.0 / float64(l.in))
		for j := range l.weights {
			l.weights[j] = rng.NormFloat64() * std
		}
		n.layers = append(n.layers, l)
	}
	n.activations = make([][]float64, len(cfg.Layers))
	n.deltas = make([][]float64, len(n.layers))
	for i, sz := range cfg.Layers {
		n.activations[i] = make([]float64, sz)
	}
	for i, l := range n.layers {
		n.deltas[i] = make([]float64, l.out)
	}
	return n, nil
}

// InputSize returns the expected input dimensionality.
func (n *Network) InputSize() int { return n.cfg.Layers[0] }

// OutputSize returns the network's output dimensionality.
func (n *Network) OutputSize() int { return n.cfg.Layers[len(n.cfg.Layers)-1] }

// Forward evaluates the network, returning a copy of the output activations.
func (n *Network) Forward(x []float64) ([]float64, error) {
	if len(x) != n.InputSize() {
		return nil, fmt.Errorf("forward: got %d inputs, want %d: %w",
			len(x), n.InputSize(), ErrBadInput)
	}
	copy(n.activations[0], x)
	for li, l := range n.layers {
		in := n.activations[li]
		out := n.activations[li+1]
		for o := 0; o < l.out; o++ {
			sum := l.bias[o]
			row := l.weights[o*l.in : (o+1)*l.in]
			for i, v := range in {
				sum += row[i] * v
			}
			out[o] = l.act.apply(sum)
		}
	}
	res := make([]float64, n.OutputSize())
	copy(res, n.activations[len(n.activations)-1])
	return res, nil
}

// Train runs one SGD step on (x, target) minimizing ½‖out − target‖², with an
// optional per-output mask: when mask is non-nil, output i contributes
// mask[i]·½(out[i]−target[i])² to the loss, so mask[i] == 0 disables the
// output and fractional masks scale its gradient — the importance-sampling
// weights of prioritized replay ride through here. A mask of exactly 1 is a
// bitwise no-op, so plain 0/1 masks (how the DQN trains a single action's
// Q-value per transition) behave as a pure gate. It returns the (masked)
// squared error.
func (n *Network) Train(x, target, mask []float64) (float64, error) {
	if len(target) != n.OutputSize() {
		return 0, fmt.Errorf("train: got %d targets, want %d: %w",
			len(target), n.OutputSize(), ErrBadInput)
	}
	if mask != nil && len(mask) != n.OutputSize() {
		return 0, fmt.Errorf("train: got %d mask entries, want %d: %w",
			len(mask), n.OutputSize(), ErrBadInput)
	}
	if _, err := n.Forward(x); err != nil {
		return 0, err
	}
	out := n.activations[len(n.activations)-1]
	last := len(n.layers) - 1
	var loss float64
	for o := range out {
		diff := out[o] - target[o]
		if mask != nil && mask[o] == 0 {
			n.deltas[last][o] = 0
			continue
		}
		w := 1.0
		if mask != nil {
			w = mask[o]
		}
		loss += w * 0.5 * diff * diff
		n.deltas[last][o] = w * diff * n.layers[last].act.derivative(out[o])
	}
	// Backpropagate deltas.
	for li := last - 1; li >= 0; li-- {
		l := n.layers[li]
		next := n.layers[li+1]
		for o := 0; o < l.out; o++ {
			var sum float64
			for k := 0; k < next.out; k++ {
				sum += next.weights[k*next.in+o] * n.deltas[li+1][k]
			}
			n.deltas[li][o] = sum * l.act.derivative(n.activations[li+1][o])
		}
	}
	n.applyUpdate()
	return loss, nil
}

// applyUpdate runs the configured optimizer over the freshly computed
// deltas and activations.
func (n *Network) applyUpdate() {
	lr, mom := n.cfg.LearningRate, n.cfg.Momentum
	adam := n.cfg.Optimizer == OptAdam
	if adam {
		n.adamStep++
	}
	const (
		beta1 = 0.9
		beta2 = 0.999
		eps   = 1e-8
	)
	// Bias-correction factors for this step.
	var c1, c2 float64
	if adam {
		c1 = 1 - math.Pow(beta1, float64(n.adamStep))
		c2 = 1 - math.Pow(beta2, float64(n.adamStep))
	}
	stateless := n.stateless()
	for li, l := range n.layers {
		in := n.activations[li]
		if !stateless {
			l.ensureOptState(adam)
		}
		for o := 0; o < l.out; o++ {
			d := n.deltas[li][o]
			if d == 0 {
				continue
			}
			base := o * l.in
			if stateless {
				for i := 0; i < l.in; i++ {
					l.weights[base+i] -= lr * (d * in[i])
				}
				l.bias[o] -= lr * d
				continue
			}
			if adam {
				for i := 0; i < l.in; i++ {
					g := d * in[i]
					k := base + i
					l.vWeights[k] = beta1*l.vWeights[k] + (1-beta1)*g
					l.mWeights[k] = beta2*l.mWeights[k] + (1-beta2)*g*g
					l.weights[k] -= lr * (l.vWeights[k] / c1) /
						(math.Sqrt(l.mWeights[k]/c2) + eps)
				}
				l.vBias[o] = beta1*l.vBias[o] + (1-beta1)*d
				l.mBias[o] = beta2*l.mBias[o] + (1-beta2)*d*d
				l.bias[o] -= lr * (l.vBias[o] / c1) / (math.Sqrt(l.mBias[o]/c2) + eps)
				continue
			}
			for i := 0; i < l.in; i++ {
				g := d * in[i]
				l.vWeights[base+i] = mom*l.vWeights[base+i] - lr*g
				l.weights[base+i] += l.vWeights[base+i]
			}
			l.vBias[o] = mom*l.vBias[o] - lr*d
			l.bias[o] += l.vBias[o]
		}
	}
}

// CopyWeightsFrom overwrites n's parameters with src's. Both networks must
// share a topology; this is the DQN target-network sync.
func (n *Network) CopyWeightsFrom(src *Network) error {
	if len(n.layers) != len(src.layers) {
		return fmt.Errorf("copy weights: %d vs %d layers: %w",
			len(n.layers), len(src.layers), ErrBadTopology)
	}
	for i, l := range n.layers {
		sl := src.layers[i]
		if l.in != sl.in || l.out != sl.out {
			return fmt.Errorf("copy weights: layer %d shape mismatch: %w", i, ErrBadTopology)
		}
		copy(l.weights, sl.weights)
		copy(l.bias, sl.bias)
	}
	return nil
}

// CopyStateFrom overwrites n's parameters AND optimizer state (momentum /
// Adam moment buffers and the Adam step counter) with src's. Both networks
// must share a topology. This is the transfer-learning warm start: unlike
// Clone/CopyWeightsFrom, a network seeded this way resumes optimization
// exactly where the source left off instead of restarting momentum and Adam
// bias correction from zero.
func (n *Network) CopyStateFrom(src *Network) error {
	if err := n.CopyWeightsFrom(src); err != nil {
		return fmt.Errorf("copy state: %w", err)
	}
	for i, l := range n.layers {
		sl := src.layers[i]
		l.vWeights = copyState(l.vWeights, sl.vWeights)
		l.vBias = copyState(l.vBias, sl.vBias)
		l.mWeights = copyState(l.mWeights, sl.mWeights)
		l.mBias = copyState(l.mBias, sl.mBias)
	}
	n.adamStep = src.adamStep
	return nil
}

// copyState copies one optimizer buffer, keeping "not yet allocated" (nil) as
// it is in src.
func copyState(dst, src []float64) []float64 {
	if src == nil {
		return nil
	}
	if dst == nil {
		dst = make([]float64, len(src))
	}
	copy(dst, src)
	return dst
}

// Clone returns an independent copy of the network (weights and config; the
// momentum state is reset).
func (n *Network) Clone() (*Network, error) {
	c, err := New(n.cfg)
	if err != nil {
		return nil, err
	}
	if err := c.CopyWeightsFrom(n); err != nil {
		return nil, err
	}
	return c, nil
}

// snapshot is the JSON wire format for Marshal/Unmarshal. Optimizer state
// (momentum / Adam moment buffers and the Adam step counter) rides along so
// a round-tripped network resumes training exactly where it left off instead
// of silently restarting Adam bias correction; older snapshots without those
// fields load with fresh optimizer state.
type snapshot struct {
	Config   Config      `json:"config"`
	Weights  [][]float64 `json:"weights"`
	Biases   [][]float64 `json:"biases"`
	AdamStep int         `json:"adam_step,omitempty"`
	VWeights [][]float64 `json:"v_weights,omitempty"`
	VBiases  [][]float64 `json:"v_biases,omitempty"`
	MWeights [][]float64 `json:"m_weights,omitempty"`
	MBiases  [][]float64 `json:"m_biases,omitempty"`
}

func cloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// MarshalJSON serializes the network's config, parameters and optimizer
// state.
func (n *Network) MarshalJSON() ([]byte, error) {
	s := snapshot{Config: n.cfg, AdamStep: n.adamStep}
	// Updates allocate optimizer state on every layer at once, so the first
	// layer speaks for all of them.
	first := n.layers[0]
	for _, l := range n.layers {
		s.Weights = append(s.Weights, cloneVec(l.weights))
		s.Biases = append(s.Biases, cloneVec(l.bias))
		if first.vWeights != nil {
			s.VWeights = append(s.VWeights, cloneVec(l.vWeights))
			s.VBiases = append(s.VBiases, cloneVec(l.vBias))
		}
		if first.mWeights != nil {
			s.MWeights = append(s.MWeights, cloneVec(l.mWeights))
			s.MBiases = append(s.MBiases, cloneVec(l.mBias))
		}
	}
	return json.Marshal(s)
}

// restoreBlocks copies per-layer vectors from a snapshot field into the
// destination selected by pick, validating counts and lengths. A nil src is
// accepted (legacy snapshots without optimizer state).
func restoreBlocks(layers []*layer, src [][]float64, name string,
	pick func(l *layer) []float64) error {
	if src == nil {
		return nil
	}
	if len(src) != len(layers) {
		return fmt.Errorf("neural unmarshal: %d %s blocks for %d layers: %w",
			len(src), name, len(layers), ErrBadTopology)
	}
	for i, l := range layers {
		dst := pick(l)
		if len(src[i]) != len(dst) {
			return fmt.Errorf("neural unmarshal: layer %d %s size mismatch: %w",
				i, name, ErrBadTopology)
		}
		copy(dst, src[i])
	}
	return nil
}

// UnmarshalJSON restores a network serialized with MarshalJSON.
func (n *Network) UnmarshalJSON(data []byte) error {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("neural unmarshal: %w", err)
	}
	restored, err := New(s.Config)
	if err != nil {
		return fmt.Errorf("neural unmarshal: %w", err)
	}
	if s.Weights == nil || s.Biases == nil {
		return fmt.Errorf("neural unmarshal: missing parameter blocks: %w", ErrBadTopology)
	}
	if restored.stateless() {
		// Older snapshots carry a velocity at momentum 0, where it is
		// multiplied by zero before it is used: load them, drop it.
		s.VWeights, s.VBiases = nil, nil
	}
	if s.VWeights != nil || s.MWeights != nil {
		for _, l := range restored.layers {
			l.ensureOptState(s.MWeights != nil)
		}
	}
	for _, blk := range []struct {
		src  [][]float64
		name string
		pick func(l *layer) []float64
	}{
		{s.Weights, "weight", func(l *layer) []float64 { return l.weights }},
		{s.Biases, "bias", func(l *layer) []float64 { return l.bias }},
		{s.VWeights, "v_weight", func(l *layer) []float64 { return l.vWeights }},
		{s.VBiases, "v_bias", func(l *layer) []float64 { return l.vBias }},
		{s.MWeights, "m_weight", func(l *layer) []float64 { return l.mWeights }},
		{s.MBiases, "m_bias", func(l *layer) []float64 { return l.mBias }},
	} {
		if err := restoreBlocks(restored.layers, blk.src, blk.name, blk.pick); err != nil {
			return err
		}
	}
	restored.adamStep = s.AdamStep
	*n = *restored
	return nil
}

var (
	_ json.Marshaler   = (*Network)(nil)
	_ json.Unmarshaler = (*Network)(nil)
)
