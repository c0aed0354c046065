package nn

import (
	"fmt"
	"math/rand"

	"openei/internal/tensor"
)

// LayerSpec is a serializable description of one layer's architecture.
// Exactly one group of fields is meaningful depending on Type.
type LayerSpec struct {
	Type     string             `json:"type"`
	In       int                `json:"in,omitempty"`       // dense
	Out      int                `json:"out,omitempty"`      // dense
	Conv     *tensor.Conv2DSpec `json:"conv,omitempty"`     // conv2d, dwconv2d
	Pool     *tensor.PoolSpec   `json:"pool,omitempty"`     // maxpool
	Rate     float64            `json:"rate,omitempty"`     // dropout
	Features int                `json:"features,omitempty"` // batchnorm
	RNN      *RNNSpec           `json:"rnn,omitempty"`      // fastgrnn
}

// BuildLayer constructs a layer from its spec with zeroed parameters.
func BuildLayer(s LayerSpec) (Layer, error) {
	switch s.Type {
	case "dense":
		if s.In <= 0 || s.Out <= 0 {
			return nil, fmt.Errorf("%w: dense %d→%d", ErrBadSpec, s.In, s.Out)
		}
		return NewDense(s.In, s.Out), nil
	case "conv2d":
		if s.Conv == nil {
			return nil, fmt.Errorf("%w: conv2d without conv spec", ErrBadSpec)
		}
		if err := s.Conv.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		return NewConv2D(*s.Conv), nil
	case "dwconv2d":
		if s.Conv == nil {
			return nil, fmt.Errorf("%w: dwconv2d without conv spec", ErrBadSpec)
		}
		return NewDepthwiseConv2D(*s.Conv), nil
	case "maxpool":
		if s.Pool == nil {
			return nil, fmt.Errorf("%w: maxpool without pool spec", ErrBadSpec)
		}
		return NewMaxPool(*s.Pool), nil
	case "relu":
		return &ReLU{}, nil
	case "flatten":
		return &Flatten{}, nil
	case "gap":
		return &GlobalAvgPool{}, nil
	case "dropout":
		return NewDropout(s.Rate), nil
	case "batchnorm":
		if s.Features <= 0 {
			return nil, fmt.Errorf("%w: batchnorm features %d", ErrBadSpec, s.Features)
		}
		return NewBatchNorm(s.Features), nil
	case "fastgrnn":
		if s.RNN == nil {
			return nil, fmt.Errorf("%w: fastgrnn without rnn spec", ErrBadSpec)
		}
		return NewFastGRNN(*s.RNN)
	default:
		return nil, fmt.Errorf("%w: unknown layer type %q", ErrBadSpec, s.Type)
	}
}

// Model is a sequential stack of layers with a name and a declared
// per-sample input shape. The final layer is expected to emit class logits;
// softmax is applied by the loss and by Predict.
type Model struct {
	Name       string
	InputShape []int
	Layers     []Layer
}

// NewModel builds a model from layer specs. Parameters are zero; call
// InitParams or load weights before use.
func NewModel(name string, inputShape []int, specs []LayerSpec) (*Model, error) {
	m := &Model{Name: name, InputShape: append([]int(nil), inputShape...)}
	shape := inputShape
	for i, s := range specs {
		l, err := BuildLayer(s)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
		shape, err = l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("layer %d (%s): %w", i, s.Type, err)
		}
		m.Layers = append(m.Layers, l)
	}
	return m, nil
}

// MustModel is NewModel that panics on error, for the model zoo's
// compile-time-known architectures.
func MustModel(name string, inputShape []int, specs []LayerSpec) *Model {
	m, err := NewModel(name, inputShape, specs)
	if err != nil {
		panic(err)
	}
	return m
}

// Specs returns the serializable architecture.
func (m *Model) Specs() []LayerSpec {
	specs := make([]LayerSpec, len(m.Layers))
	for i, l := range m.Layers {
		specs[i] = l.Spec()
	}
	return specs
}

// OutputShape returns the per-sample output shape.
func (m *Model) OutputShape() ([]int, error) {
	shape := m.InputShape
	var err error
	for i, l := range m.Layers {
		shape, err = l.OutShape(shape)
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return shape, nil
}

// Classes returns the number of output classes (the flattened output size).
func (m *Model) Classes() int {
	out, err := m.OutputShape()
	if err != nil {
		return 0
	}
	return prod(out)
}

// InitParams initializes every parameter with Glorot/He-style random values
// drawn from rng.
func (m *Model) InitParams(rng *rand.Rand) {
	for _, l := range m.Layers {
		switch t := l.(type) {
		case *Dense:
			t.W.GlorotInit(rng, t.In, t.Out)
			t.B.Zero()
		case *Conv2D:
			fanIn := t.SpecV.InC * t.SpecV.KH * t.SpecV.KW
			t.W.GlorotInit(rng, fanIn, t.SpecV.OutC)
			t.B.Zero()
		case *DepthwiseConv2D:
			t.W.GlorotInit(rng, t.SpecV.KH*t.SpecV.KW, t.SpecV.KH*t.SpecV.KW)
			t.B.Zero()
		case *FastGRNN:
			t.W.GlorotInit(rng, t.SpecV.D, t.SpecV.H)
			t.U.GlorotInit(rng, t.SpecV.H, t.SpecV.H)
			t.Bz.Zero()
			t.Bh.Zero()
		case *Dropout:
			t.SetRand(rng)
		}
	}
}

// SetRand wires a random source into the layers that need one (dropout).
func (m *Model) SetRand(rng *rand.Rand) {
	for _, l := range m.Layers {
		if d, ok := l.(*Dropout); ok {
			d.SetRand(rng)
		}
	}
}

// Forward runs the full stack.
func (m *Model) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	var err error
	for i, l := range m.Layers {
		x, err = l.Forward(x, train)
		if err != nil {
			return nil, fmt.Errorf("%s layer %d (%s): %w", m.Name, i, l.Kind(), err)
		}
	}
	return x, nil
}

// arenaForwarder is the optional inference fast path a layer can expose:
// a forward pass whose output (and scratch) comes from the caller's arena
// instead of the heap. Layers without it run their ordinary Forward in
// inference mode.
type arenaForwarder interface {
	forwardArena(x *tensor.Tensor, a *tensor.Arena) (*tensor.Tensor, error)
}

// ForwardArena runs an inference-mode forward pass with every activation
// allocated from the arena. With a frozen model (FreezeInference) and a
// warmed arena the pass performs zero heap allocations — the serving
// replicas' steady state. The returned tensor is valid until the arena's
// next Reset.
func (m *Model) ForwardArena(x *tensor.Tensor, a *tensor.Arena) (*tensor.Tensor, error) {
	var err error
	for i, l := range m.Layers {
		if af, ok := l.(arenaForwarder); ok {
			x, err = af.forwardArena(x, a)
		} else {
			x, err = l.Forward(x, false)
		}
		if err != nil {
			return nil, fmt.Errorf("%s layer %d (%s): %w", m.Name, i, l.Kind(), err)
		}
	}
	return x, nil
}

// Backward propagates dL/dlogits through the stack.
func (m *Model) Backward(grad *tensor.Tensor) error {
	var err error
	for i := len(m.Layers) - 1; i >= 0; i-- {
		grad, err = m.Layers[i].Backward(grad)
		if err != nil {
			return fmt.Errorf("%s layer %d (%s): %w", m.Name, i, m.Layers[i].Kind(), err)
		}
	}
	return nil
}

// ZeroGrads clears all accumulated gradients.
func (m *Model) ZeroGrads() {
	for _, l := range m.Layers {
		for _, g := range l.Grads() {
			g.Zero()
		}
	}
}

// Params returns all trainable parameters in layer order.
func (m *Model) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads returns all gradients parallel to Params.
func (m *Model) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range m.Layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// ParamCount returns the total number of trainable scalars.
func (m *Model) ParamCount() int64 {
	var n int64
	for _, p := range m.Params() {
		n += int64(p.Len())
	}
	return n
}

// FLOPs returns the forward cost at the given batch size.
func (m *Model) FLOPs(batch int) int64 {
	var n int64
	for _, l := range m.Layers {
		n += l.FLOPs(batch)
	}
	return n
}

// ActivationBytes estimates the peak activation memory (bytes, float32) for
// one sample as the sum of the two largest activation shapes anywhere in
// the model (input included), whether or not they are adjacent layers.
func (m *Model) ActivationBytes() int64 {
	shape := m.InputShape
	best1, best2 := int64(prod(shape)), int64(0)
	for _, l := range m.Layers {
		out, err := l.OutShape(shape)
		if err != nil {
			break
		}
		n := int64(prod(out))
		if n > best1 {
			best1, best2 = n, best1
		} else if n > best2 {
			best2 = n
		}
		shape = out
	}
	return 4 * (best1 + best2)
}

// WeightBytes returns the storage of the model's deployed weight
// representation in bytes: 4 bytes per float32 parameter, but layers
// holding an int8 artifact (QW) count that artifact's actual footprint
// (1 byte per weight plus the per-tensor scale) instead of the float
// shadow — so a quantized tier reports ≈¼ the bytes of its float parent
// rather than the same number, and memory-cap decisions (autopilot,
// selector frontiers) see the representation that is actually deployed.
func (m *Model) WeightBytes() int64 {
	var n int64
	for _, l := range m.Layers {
		var qw *tensor.QTensor
		switch t := l.(type) {
		case *Dense:
			qw = t.QW
		case *Conv2D:
			qw = t.QW
		}
		for i, p := range l.Params() {
			if i == 0 && qw != nil && qw.Len() == p.Len() {
				n += int64(qw.SizeBytes())
				continue
			}
			n += 4 * int64(p.Len())
		}
	}
	return n
}

// Int8WeightBytes returns what WeightBytes would report if the model's
// weight matrices (dense and conv kernels — the tensors the int8 backend
// quantizes) were stored as int8 artifacts: 1 byte per weight plus a
// 4-byte scale per tensor, with biases and normalization parameters kept
// in float. The profiler uses it to cost the int8 variant of a float
// model without materializing the artifact.
func (m *Model) Int8WeightBytes() int64 {
	var n int64
	for _, l := range m.Layers {
		quantizable := false
		switch l.(type) {
		case *Dense, *Conv2D:
			quantizable = true
		}
		for i, p := range l.Params() {
			if i == 0 && quantizable {
				n += int64(p.Len()) + 4
				continue
			}
			n += 4 * int64(p.Len())
		}
	}
	return n
}

// Int4WeightBytes returns what WeightBytes would report under the int4
// plan backend: dense and conv weight matrices stored nibble-packed —
// two weights per byte, rounded up per output row — plus a 4-byte
// per-output-channel scale, with biases and normalization parameters
// kept in float. The profiler uses it to cost the int4 variant without
// materializing the packed artifact.
func (m *Model) Int4WeightBytes() int64 {
	var n int64
	for _, l := range m.Layers {
		quantizable := false
		switch l.(type) {
		case *Dense, *Conv2D:
			quantizable = true
		}
		for i, p := range l.Params() {
			if i == 0 && quantizable {
				rows := int64(p.Dim(0))
				cols := int64(p.Len()) / rows
				n += rows*((cols+1)/2) + 4*rows
				continue
			}
			n += 4 * int64(p.Len())
		}
	}
	return n
}

// InvalidateInt8Artifacts drops every installed int8 weight artifact
// (QW) and its cached dequantized expansion. Call after training mutates
// the float weights the artifacts were quantized from — consumers (plan
// compilation, WeightBytes) then re-derive int8 state from the current
// weights instead of silently serving the stale pre-training kernels.
func (m *Model) InvalidateInt8Artifacts() {
	for _, l := range m.Layers {
		switch t := l.(type) {
		case *Dense:
			t.QW = nil
			t.deqW, t.deqFor = nil, nil
		case *Conv2D:
			t.QW = nil
		}
	}
}

// Predict returns the argmax class for each row of the batched input.
func (m *Model) Predict(x *tensor.Tensor) ([]int, error) {
	logits, err := m.Forward(x, false)
	if err != nil {
		return nil, err
	}
	if logits.Dims() != 2 {
		return nil, fmt.Errorf("%w: predict expects 2-D logits, got %v", ErrShape, logits.Shape())
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	out := make([]int, batch)
	for b := 0; b < batch; b++ {
		row := logits.Data()[b*classes : (b+1)*classes]
		arg := 0
		for j, v := range row {
			if v > row[arg] {
				arg = j
			}
		}
		out[b] = arg
	}
	return out, nil
}

// Clone returns a deep copy of the model (architecture and weights). The
// clone has fresh gradient buffers and no cached activations, so it can be
// used concurrently with the original.
func (m *Model) Clone() (*Model, error) {
	c, err := NewModel(m.Name, m.InputShape, m.Specs())
	if err != nil {
		return nil, err
	}
	src, dst := m.Params(), c.Params()
	for i := range src {
		copy(dst[i].Data(), src[i].Data())
	}
	// Copy batch-norm running stats, which are not in Params.
	for i := range m.Layers {
		switch src := m.Layers[i].(type) {
		case *BatchNorm:
			dbn := c.Layers[i].(*BatchNorm)
			copy(dbn.RunMean.Data(), src.RunMean.Data())
			copy(dbn.RunVar.Data(), src.RunVar.Data())
		case *Dense:
			// Quantized weights ride along (they are never mutated in
			// place, only replaced), so a clone keeps the int8 artifact.
			c.Layers[i].(*Dense).QW = src.QW
		case *Conv2D:
			c.Layers[i].(*Conv2D).QW = src.QW
		}
	}
	return c, nil
}

// FreezeInference specializes the model for immutable inference use: every
// dense layer expands its int8 weights (if quantized) and caches the
// transposed weight matrix once, so forward passes pay neither per-call
// dequantization nor per-call transposes. Only freeze private copies whose
// weights will never change again (serving replicas); a model that may keep
// training or be re-quantized must not be frozen.
func (m *Model) FreezeInference() {
	for _, l := range m.Layers {
		d, ok := l.(*Dense)
		if !ok {
			continue
		}
		// Same lowering the inference forward uses — one shared expansion
		// point instead of freeze and forward each dequantizing on their
		// own.
		if w := d.InferenceWeights(); w != d.W {
			d.W = w
			d.QW = nil
		}
		wt, err := tensor.Transpose(d.W)
		if err != nil {
			continue // unreachable for a well-formed layer
		}
		d.wt = wt
	}
}
