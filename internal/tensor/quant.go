package tensor

import (
	"fmt"

	"openei/internal/parallel"
)

// QTensor is an int8 symmetric-quantized tensor with a single per-tensor
// scale: real ≈ scale * int8. This mirrors the quantized-kernel design of
// TF-Lite and QNNPACK that the paper cites as the core edge optimization.
type QTensor struct {
	shape []int
	Scale float32
	Data  []int8
}

// Quantize converts t to an int8 tensor using symmetric per-tensor
// quantization. A zero tensor quantizes with scale 1 to avoid division by
// zero.
func Quantize(t *Tensor) *QTensor {
	scale := t.AbsMax() / 127
	if scale == 0 {
		scale = 1
	}
	return QuantizeCalibrated(t, scale)
}

// QuantizeCalibrated converts t to int8 with a caller-supplied scale —
// the calibrated-activation path, where the scale comes from a min/max
// sweep over a calibration batch rather than from t itself. Values beyond
// ±127·scale saturate.
func QuantizeCalibrated(t *Tensor, scale float32) *QTensor {
	if scale <= 0 {
		scale = 1
	}
	q := &QTensor{shape: t.Shape(), Scale: scale, Data: make([]int8, t.Len())}
	QuantizeCalibratedInto(q.Data, t.data, scale)
	return q
}

// QRound8 maps one prepared float to the saturating int8 grid, rounding
// half away from zero — math.Round's semantics without its cost: amd64
// has no half-away rounding instruction and math.Round is not
// intrinsified there, so the hot requant epilogues spend their time in
// its bit-twiddling. A truncating convert of the sign-matched t±½ is
// bitwise identical for every float32-derived input: below the ±126.5
// clamp guards the sum spans at most 24 significand bits across
// exponents [2⁻¹,2⁷), exact in float64, and truncation toward zero of
// the shifted value IS round-half-away. Every quantization site must go through
// this one function — the fused-epilogue bitwise guarantee depends on
// all paths sharing one rounding expression.
func QRound8(v float32) int8 {
	t := float64(v)
	if t >= 0 {
		if t >= 126.5 {
			return 127
		}
		return int8(int32(t + 0.5))
	}
	if t <= -126.5 {
		return -127
	}
	return int8(int32(t - 0.5))
}

// QuantizeCalibratedInto quantizes src into dst (len(dst) ≥ len(src))
// with the given scale, saturating at ±127. It is the allocation-free
// core the compiled int8 execution plans use to requantize activations
// between layers.
func QuantizeCalibratedInto(dst []int8, src []float32, scale float32) {
	inv := 1 / scale
	for i, v := range src {
		dst[i] = QRound8(v * inv)
	}
}

// qDequantRow is the int8 kernel epilogue: rescale the int32
// accumulators, add the (per-channel) bias, clamp negatives when the
// producer fused a ReLU.
func qDequantRow(dst []float32, acc []int32, scale, bv float32, relu bool) {
	for i, v := range acc {
		f := float32(v)*scale + bv
		if relu && f < 0 {
			f = 0
		}
		dst[i] = f
	}
}

// qRequantRow is the fused form: the identical float expression followed
// immediately by the consumer's requantization — QuantizeCalibratedInto's
// exact arithmetic with invOut = 1/consumerScale — so a quantized op
// writes final int8 activations in one pass, bitwise identical to
// dequantize-then-requantize.
func qRequantRow(qdst []int8, acc []int32, scale, bv, invOut float32, relu bool) {
	for i, v := range acc {
		f := float32(v)*scale + bv
		if relu && f < 0 {
			f = 0
		}
		qdst[i] = QRound8(f * invOut)
	}
}

// Dequantize converts q back to a float32 tensor.
func (q *QTensor) Dequantize() *Tensor {
	t := New(q.shape...)
	for i, v := range q.Data {
		t.data[i] = float32(v) * q.Scale
	}
	return t
}

// Shape returns a copy of the quantized tensor's shape.
func (q *QTensor) Shape() []int { return append([]int(nil), q.shape...) }

// Len returns the element count.
func (q *QTensor) Len() int { return len(q.Data) }

// SizeBytes returns the storage footprint of the quantized payload.
func (q *QTensor) SizeBytes() int { return len(q.Data) + 4 }

// QMatMul computes C = A·B where both operands are int8 quantized 2-D
// tensors. B is repacked once into row-major Bᵀ, then each output row is
// produced by the four-column dot kernel QGemmRowT: int8×int8 products
// accumulated in four register-resident int32 accumulators with a single
// float32 scale multiply at the end — the quantized-kernel shape TF-Lite
// and QNNPACK use. Rows of C shard across the parallel runtime; integer
// accumulation makes the result exact regardless of pool width.
func QMatMul(a, b *QTensor) (*Tensor, error) {
	if len(a.shape) != 2 || len(b.shape) != 2 {
		return nil, fmt.Errorf("%w: QMatMul needs 2-D operands, got %v × %v", ErrShape, a.shape, b.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		return nil, fmt.Errorf("%w: QMatMul inner dims %d vs %d", ErrShape, k, k2)
	}
	c := New(m, n)
	scale := a.Scale * b.Scale
	btp := i8Scratch(k * n)
	defer i8Release(btp)
	bt := *btp
	for p := 0; p < k; p++ {
		bp := b.Data[p*n : p*n+n]
		for j, v := range bp {
			bt[j*k+p] = v
		}
	}
	rows := func(lo, hi int) {
		accP := i32Scratch(n)
		defer i32Release(accP)
		acc := *accP
		for i := lo; i < hi; i++ {
			QGemmRowT(acc, a.Data[i*k:i*k+k], bt, k, n)
			ci := c.data[i*n : i*n+n]
			for j, v := range acc[:n] {
				ci[j] = float32(v) * scale
			}
		}
	}
	if m > 1 && parallel.Worth(m*k*n) {
		parallel.Do(m, grainRows(k*n), rows)
	} else {
		rows(0, m)
	}
	return c, nil
}

// QGemmRowT computes one GEMM output row in int32 against a transposed
// right-hand side: acc[j] = Σ_p a[p]·bt[j·k+p] for a single left row a
// (length k) and bt holding Bᵀ row-major (n rows of length k). The
// transposed layout keeps every QDot streaming two contiguous vectors —
// the shape the AVX2 kernel wants.
func QGemmRowT(acc []int32, a, bt []int8, k, n int) {
	a = a[:k]
	for j := 0; j < n; j++ {
		acc[j] = QDot(a, bt[j*k:j*k+k])
	}
}

// QDot is the int8 dot product behind every quantized kernel, exported
// so the compiled int8 execution plans build their dense and conv
// epilogues on the same reduction QMatMul uses. On amd64 with AVX2 the
// bulk runs sixteen 16-bit multiply-adds per instruction (VPMOVSXBW +
// VPMADDWD — the reason int8 backends beat float on real hardware); the
// scalar remainder (and other architectures) use four int32 accumulators
// mirroring the float kernel's unroll. int32 cannot overflow: each lane
// would need more than 2³¹/127² ≈ 133K terms, orders of magnitude beyond
// any inner dimension these models use. Integer accumulation is exact,
// so vector and scalar paths return identical results.
func QDot(a, b []int8) int32 {
	n := len(a)
	b = b[:n]
	var s int32
	i := 0
	if useAVX2 && n >= 32 {
		m := n &^ 31
		s = qdotAsm(&a[0], &b[0], m)
		i = m
	}
	var s0, s1, s2, s3 int32
	for ; i+3 < n; i += 4 {
		s0 += int32(a[i]) * int32(b[i])
		s1 += int32(a[i+1]) * int32(b[i+1])
		s2 += int32(a[i+2]) * int32(b[i+2])
		s3 += int32(a[i+3]) * int32(b[i+3])
	}
	for ; i < n; i++ {
		s0 += int32(a[i]) * int32(b[i])
	}
	return s + s0 + s1 + s2 + s3
}
