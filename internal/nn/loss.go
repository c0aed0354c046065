package nn

import (
	"fmt"
	"math"

	"openei/internal/tensor"
)

// Softmax computes row-wise softmax of 2-D logits, numerically stabilized.
func Softmax(logits *tensor.Tensor) (*tensor.Tensor, error) {
	if logits.Dims() != 2 {
		return nil, fmt.Errorf("%w: softmax needs 2-D logits, got %v", ErrShape, logits.Shape())
	}
	out := tensor.New(logits.Dim(0), logits.Dim(1))
	if err := SoftmaxInto(out, logits); err != nil {
		return nil, err
	}
	return out, nil
}

// SoftmaxInto computes row-wise softmax of 2-D logits into dst, reusing
// dst's storage (it need not be zeroed).
func SoftmaxInto(dst, logits *tensor.Tensor) error {
	if logits.Dims() != 2 {
		return fmt.Errorf("%w: softmax needs 2-D logits, got %v", ErrShape, logits.Shape())
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	if dst.Dims() != 2 || dst.Dim(0) != batch || dst.Dim(1) != classes {
		return fmt.Errorf("%w: softmax output %v for logits %v", ErrShape, dst.Shape(), logits.Shape())
	}
	out := dst
	for b := 0; b < batch; b++ {
		row := logits.Data()[b*classes : (b+1)*classes]
		dst := out.Data()[b*classes : (b+1)*classes]
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(float64(v - maxV))
			dst[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range dst {
			dst[j] *= inv
		}
	}
	return nil
}

// SoftmaxT computes softmax with temperature T (used by knowledge
// distillation's soft targets; T=1 is plain softmax).
func SoftmaxT(logits *tensor.Tensor, temperature float64) (*tensor.Tensor, error) {
	if temperature <= 0 {
		return nil, fmt.Errorf("nn: softmax temperature must be positive, got %v", temperature)
	}
	scaled := logits.Clone()
	scaled.Scale(float32(1 / temperature))
	return Softmax(scaled)
}

// CrossEntropy computes mean cross-entropy loss of logits against integer
// labels and returns the loss plus dL/dlogits (softmax − onehot, averaged
// over the batch), ready for Model.Backward.
func CrossEntropy(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	if logits.Dims() != 2 {
		return 0, nil, fmt.Errorf("%w: cross-entropy needs 2-D logits, got %v", ErrShape, logits.Shape())
	}
	batch, classes := logits.Dim(0), logits.Dim(1)
	if len(labels) != batch {
		return 0, nil, fmt.Errorf("%w: %d labels for batch %d", ErrShape, len(labels), batch)
	}
	probs, err := Softmax(logits)
	if err != nil {
		return 0, nil, err
	}
	grad := probs.Clone()
	var loss float64
	inv := float32(1 / float64(batch))
	for b, y := range labels {
		if y < 0 || y >= classes {
			return 0, nil, fmt.Errorf("%w: label %d out of range [0,%d)", ErrShape, y, classes)
		}
		p := probs.At(b, y)
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(float64(p))
		grad.Set(grad.At(b, y)-1, b, y)
	}
	grad.Scale(inv)
	return loss / float64(batch), grad, nil
}

// DistillLoss computes the knowledge-distillation objective of
// Table I's "knowledge transfer" row: a weighted sum of hard-label
// cross-entropy and KL divergence to the teacher's temperature-softened
// distribution. It returns loss and dL/dlogits for the student.
//
//	L = alpha * CE(student, labels) + (1-alpha) * T² * KL(teacher_T ‖ student_T)
func DistillLoss(studentLogits, teacherProbsT *tensor.Tensor, labels []int, temperature, alpha float64) (float64, *tensor.Tensor, error) {
	if !tensor.SameShape(studentLogits, teacherProbsT) {
		return 0, nil, fmt.Errorf("%w: student %v vs teacher %v", ErrShape, studentLogits.Shape(), teacherProbsT.Shape())
	}
	hardLoss, hardGrad, err := CrossEntropy(studentLogits, labels)
	if err != nil {
		return 0, nil, err
	}
	studentT, err := SoftmaxT(studentLogits, temperature)
	if err != nil {
		return 0, nil, err
	}
	batch, classes := studentLogits.Dim(0), studentLogits.Dim(1)
	softGrad := tensor.New(batch, classes)
	var softLoss float64
	t2 := temperature * temperature
	for b := 0; b < batch; b++ {
		for j := 0; j < classes; j++ {
			p := float64(teacherProbsT.At(b, j))
			q := float64(studentT.At(b, j))
			if p > 1e-12 {
				if q < 1e-12 {
					q = 1e-12
				}
				softLoss += p * math.Log(p/q)
			}
			// d/dlogit of T²·KL is T·(q − p); fold batch mean in below.
			softGrad.Set(float32(temperature*(q-p)/float64(batch)), b, j)
		}
	}
	softLoss = softLoss / float64(batch) * t2

	total := alpha*hardLoss + (1-alpha)*softLoss
	grad := tensor.New(batch, classes)
	if err := grad.AddScaled(hardGrad, float32(alpha)); err != nil {
		return 0, nil, err
	}
	if err := grad.AddScaled(softGrad, float32(1-alpha)); err != nil {
		return 0, nil, err
	}
	return total, grad, nil
}

// Accuracy returns the fraction of rows of x whose predicted class matches
// labels.
func Accuracy(m *Model, x *tensor.Tensor, labels []int) (float64, error) {
	pred, err := m.Predict(x)
	if err != nil {
		return 0, err
	}
	if len(pred) != len(labels) {
		return 0, fmt.Errorf("%w: %d predictions vs %d labels", ErrShape, len(pred), len(labels))
	}
	if len(labels) == 0 {
		return 0, nil
	}
	correct := 0
	for i := range pred {
		if pred[i] == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}

// AccuracyLogits returns the fraction of rows of a 2-D logits (or
// probability) tensor whose argmax matches the label — the accuracy
// loop shared by the model path and callers that already hold logits
// from another executor (compiled plans).
func AccuracyLogits(logits *tensor.Tensor, labels []int) (float64, error) {
	if logits.Dims() != 2 {
		return 0, fmt.Errorf("%w: accuracy needs 2-D logits, got %v", ErrShape, logits.Shape())
	}
	if logits.Dim(0) != len(labels) {
		return 0, fmt.Errorf("%w: %d logit rows vs %d labels", ErrShape, logits.Dim(0), len(labels))
	}
	if len(labels) == 0 {
		return 0, nil
	}
	classes := logits.Dim(1)
	correct := 0
	for b, want := range labels {
		row := logits.Data()[b*classes : (b+1)*classes]
		arg := 0
		for j, v := range row {
			if v > row[arg] {
				arg = j
			}
		}
		if arg == want {
			correct++
		}
	}
	return float64(correct) / float64(len(labels)), nil
}

// TopConfidence runs the model on a single batch and returns, per row, the
// argmax class and its softmax probability. DDNN-style early exit uses the
// probability as the confidence score.
func TopConfidence(m *Model, x *tensor.Tensor) ([]int, []float64, error) {
	logits, err := m.Forward(x, false)
	if err != nil {
		return nil, nil, err
	}
	probs, err := Softmax(logits)
	if err != nil {
		return nil, nil, err
	}
	batch, classes := probs.Dim(0), probs.Dim(1)
	cls := make([]int, batch)
	conf := make([]float64, batch)
	for b := 0; b < batch; b++ {
		row := probs.Data()[b*classes : (b+1)*classes]
		arg := 0
		for j, v := range row {
			if v > row[arg] {
				arg = j
			}
		}
		cls[b] = arg
		conf[b] = float64(row[arg])
	}
	return cls, conf, nil
}
