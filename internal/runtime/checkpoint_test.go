package runtime

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/ops"
	"repro/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	build := func(seed float32) *graph.Graph {
		g := graph.New()
		w := g.Variable("w", tensor.Full(seed, 3, 2))
		b := g.Variable("b", tensor.Full(seed*2, 2))
		x := g.Placeholder("x", 1, 3)
		ops.Add(ops.MatMul(x, w), b)
		return g
	}
	src := build(7)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := build(0)
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err != nil {
		t.Fatal(err)
	}
	for _, v := range dst.Variables() {
		want := float32(7)
		if v.Name() == "b" {
			want = 14
		}
		for _, x := range v.Value().Data() {
			if x != want {
				t.Fatalf("variable %s restored to %v, want %v", v.Name(), x, want)
			}
		}
	}
}

func TestCheckpointRejectsCorruptMagic(t *testing.T) {
	g := graph.New()
	g.Variable("w", tensor.Ones(1))
	if err := LoadCheckpoint(strings.NewReader("NOPE....."), g, false); err == nil {
		t.Fatal("bad magic should be rejected")
	}
}

func TestCheckpointShapeMismatch(t *testing.T) {
	src := graph.New()
	src.Variable("w", tensor.Ones(2, 2))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := graph.New()
	dst.Variable("w", tensor.Ones(3))
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err == nil {
		t.Fatal("shape mismatch should be rejected")
	}

	// A mismatch in a later record must not leave earlier records
	// restored: the load is all or nothing.
	src = graph.New()
	src.Variable("a", tensor.Full(5, 2))
	src.Variable("b", tensor.Full(5, 2, 2))
	buf.Reset()
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst = graph.New()
	a := dst.Variable("a", tensor.Full(1, 2))
	dst.Variable("b", tensor.Full(1, 4))
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err == nil {
		t.Fatal("second-variable shape mismatch should be rejected")
	}
	for _, x := range a.Value().Data() {
		if x != 1 {
			t.Fatalf("failed load overwrote variable a: %v", a.Value().Data())
		}
	}
}

// TestCheckpointRejectsCorruptHeaders feeds crafted records whose
// header fields would size huge allocations; each must come back as an
// error, not an out-of-memory crash.
func TestCheckpointRejectsCorruptHeaders(t *testing.T) {
	record := func(nameLen uint32, name string, dims ...uint32) []byte {
		var b bytes.Buffer
		b.WriteString(checkpointMagic)
		for _, u := range []uint32{checkpointVersion, 1, nameLen} {
			binary.Write(&b, binary.LittleEndian, u)
		}
		b.WriteString(name)
		binary.Write(&b, binary.LittleEndian, uint32(len(dims)))
		for _, d := range dims {
			binary.Write(&b, binary.LittleEndian, d)
		}
		return b.Bytes()
	}
	cases := map[string][]byte{
		"rank-3 0xFFFFFFFF dims": record(1, "w", 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF),
		"huge name length":       record(0xFFFFFFFF, "w"),
	}
	for label, data := range cases {
		g := graph.New()
		g.Variable("w", tensor.Ones(2, 2))
		if err := LoadCheckpoint(bytes.NewReader(data), g, false); err == nil {
			t.Errorf("%s: corrupt checkpoint accepted", label)
		}
	}
}

func TestCheckpointUnknownVariable(t *testing.T) {
	src := graph.New()
	src.Variable("only_in_src", tensor.Ones(1))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := graph.New()
	dst.Variable("different", tensor.Ones(1))
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err == nil {
		t.Fatal("unknown checkpoint variable should be rejected")
	}
}

func TestCheckpointMissingVariableStrictness(t *testing.T) {
	src := graph.New()
	src.Variable("w", tensor.Full(3, 2))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := graph.New()
	dst.Variable("w", tensor.New(2))
	dst.Variable("extra", tensor.New(1))
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, false); err == nil {
		t.Fatal("strict load should reject unrestored graph variables")
	}
	if dst.Variables()[0].Value().Data()[0] != 0 {
		t.Fatal("rejected strict load should leave present variables untouched")
	}
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), dst, true); err != nil {
		t.Fatalf("lenient load should succeed: %v", err)
	}
	if dst.Variables()[0].Value().Data()[0] != 3 {
		t.Fatal("lenient load should still restore present variables")
	}
}

func TestCheckpointDuplicateNamesRejected(t *testing.T) {
	g := graph.New()
	g.Variable("dup", tensor.Ones(1))
	g.Variable("dup", tensor.Ones(1))
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, g); err == nil {
		t.Fatal("duplicate variable names should be rejected")
	}
}

func TestCheckpointWorkloadWeights(t *testing.T) {
	// Round-trip a real (tiny) workload's weights: train a little,
	// save, reinitialize, load, verify equality.
	g := graph.New()
	w := g.Variable("fc/W", tensor.RandNormal(newTestRNG(), 0, 1, 4, 4))
	loss := ops.Sum(ops.Square(w))
	grads, err := graph.Gradients(loss, []*graph.Node{w})
	if err != nil {
		t.Fatal(err)
	}
	up := ops.ApplySGD(w, grads[0], []float32{0.1})
	s := NewSession(g)
	s.MustRun([]*graph.Node{up}, nil)
	trained := w.Value().Clone()

	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, g); err != nil {
		t.Fatal(err)
	}
	w.Value().Zero()
	if err := LoadCheckpoint(bytes.NewReader(buf.Bytes()), g, false); err != nil {
		t.Fatal(err)
	}
	if tensor.MaxAbsDiff(trained, w.Value()) != 0 {
		t.Fatal("restored weights differ from trained weights")
	}
}

func newTestRNG() *rand.Rand { return rand.New(rand.NewSource(1)) }
