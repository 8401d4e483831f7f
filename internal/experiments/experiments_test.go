package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"

	_ "repro/internal/models/all"
)

// tinyOpts keeps experiment tests fast.
func tinyOpts() Options {
	return Options{Preset: core.PresetTiny, Steps: 2, Warmup: 1, Seed: 1}
}

func TestWorkloadsOrder(t *testing.T) {
	w := Workloads()
	if len(w) != 8 || w[0] != "seq2seq" || w[7] != "deepq" {
		t.Fatalf("figure order wrong: %v", w)
	}
}

func TestTable1(t *testing.T) {
	r := Table1()
	if r.ID != "table1" || !strings.Contains(r.Text, "Fathom") {
		t.Fatalf("table1: %+v", r.ID)
	}
	if !strings.Contains(r.CSV, "feature,") {
		t.Fatal("table1 CSV header missing")
	}
}

func TestTable2ListsAllModels(t *testing.T) {
	r := Table2()
	for _, name := range Workloads() {
		if !strings.Contains(r.Text, name) {
			t.Fatalf("table2 missing %s", name)
		}
	}
	if len(strings.Split(strings.TrimSpace(r.CSV), "\n")) != 9 { // header + 8
		t.Fatalf("table2 CSV should have 9 lines:\n%s", r.CSV)
	}
}

func TestProfileSuiteCoversAllModels(t *testing.T) {
	rs, err := ProfileSuite(tinyOpts(), core.ModeTraining)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("suite should have 8 results, got %d", len(rs))
	}
	for name, res := range rs {
		if res.Profile.Total == 0 {
			t.Fatalf("%s profile is empty", name)
		}
	}
}

func TestFig1Stationarity(t *testing.T) {
	r, err := Fig1(Options{Preset: core.PresetTiny, Steps: 16, Warmup: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "CoV") || !strings.Contains(r.CSV, "op,samples") {
		t.Fatalf("fig1 rendering incomplete:\n%s", r.Text)
	}
}

func TestFig2CumulativeCurves(t *testing.T) {
	rs, err := ProfileSuite(tinyOpts(), core.ModeTraining)
	if err != nil {
		t.Fatal(err)
	}
	r := Fig2From(rs)
	if !strings.Contains(r.Text, "90%") {
		t.Fatalf("fig2 text:\n%s", r.Text)
	}
	// CSV rows: model,rank,op,cumulative with final cumulative ≈ 1.
	if !strings.Contains(r.CSV, "model,rank,op,cumulative") {
		t.Fatal("fig2 CSV header")
	}
}

func TestFig3RowsSumNear100(t *testing.T) {
	rs, err := ProfileSuite(tinyOpts(), core.ModeTraining)
	if err != nil {
		t.Fatal(err)
	}
	r := Fig3From(rs)
	for _, name := range Workloads() {
		fr := rs[name].Profile.ClassFractions()
		var sum float64
		for _, f := range fr {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s class fractions sum to %v", name, sum)
		}
	}
	if !strings.Contains(r.Text, "A=Matrix Operations") {
		t.Fatal("fig3 legend missing")
	}
}

func TestFig4DendrogramHasAllLabels(t *testing.T) {
	rs, err := ProfileSuite(tinyOpts(), core.ModeTraining)
	if err != nil {
		t.Fatal(err)
	}
	r := Fig4From(rs)
	for _, name := range Workloads() {
		if !strings.Contains(r.Text, name) {
			t.Fatalf("fig4 missing %s:\n%s", name, r.Text)
		}
	}
	if !strings.Contains(r.CSV, "merge,a,b,distance") {
		t.Fatal("fig4 CSV header")
	}
}

func TestFig5TrainVsInference(t *testing.T) {
	if testing.Short() {
		t.Skip("fig5 runs 32 configurations")
	}
	r, err := Fig5(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Every model must show inference ≤ training on CPU (column 2
	// normalized ≤ 1) — checked via the CSV.
	lines := strings.Split(strings.TrimSpace(r.CSV), "\n")[1:]
	if len(lines) != 8*4 {
		t.Fatalf("fig5 CSV should have 32 rows, got %d", len(lines))
	}
	// At the tiny preset only the compute-dense conv nets are
	// guaranteed to beat the GPU's launch overhead; the skinny-tensor
	// workloads legitimately may not (the paper's own point about
	// profile skew governing GPU benefit).
	gpuMustWin := map[string]bool{"alexnet": true, "vgg": true, "deepq": true}
	for _, line := range lines {
		f := strings.Split(line, ",")
		if len(f) != 4 {
			t.Fatalf("fig5 CSV row %q", line)
		}
		// The CPU columns are measured timings; on a loaded or
		// single-core CI host a tiny-preset inference step can
		// spuriously measure a little above its training step, so the
		// inference≤training invariant gets a noise margin. The GPU
		// column is the deterministic roofline model and stays strict.
		if strings.Contains(f[1], "inference_cpu") && !lessThan(f[3], 1.3) {
			t.Errorf("%s: CPU inference (%s× training) should not exceed CPU training", f[0], f[3])
		}
		if strings.Contains(f[1], "training_gpu") && gpuMustWin[f[0]] && !lessThan(f[3], 1.0) {
			t.Errorf("%s: modeled GPU training should beat CPU training", f[0])
		}
	}
}

func lessThan(s string, bound float64) bool {
	v, err := strconv.ParseFloat(s, 64)
	return err == nil && v < bound
}

func TestFig6ScalingShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("fig6 sweeps worker counts")
	}
	r, err := Fig6(tinyOpts(), "memnet")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "1 thr") || !strings.Contains(r.Text, "8 thr") {
		t.Fatalf("fig6 missing worker columns:\n%s", r.Text)
	}
	if !strings.Contains(r.CSV, "t1_ns") || !strings.Contains(r.CSV, "t8_ns") {
		t.Fatal("fig6 CSV columns")
	}
}

func TestOverheadReportsAllModels(t *testing.T) {
	r, err := Overhead(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Workloads() {
		if !strings.Contains(r.Text, name) {
			t.Fatalf("overhead missing %s", name)
		}
	}
}

// TestSuiteClassStructure pins the qualitative Figure-3 claims at the
// tiny preset: convolution dominates the conv nets; it is absent from
// the non-convolutional workloads.
func TestSuiteClassStructure(t *testing.T) {
	rs, err := ProfileSuite(tinyOpts(), core.ModeTraining)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"residual", "vgg", "alexnet", "deepq"} {
		fr := rs[name].Profile.ClassFractions()
		if fr[graph.ClassConv] < 0.3 {
			t.Errorf("%s should be convolution-heavy, got %.2f", name, fr[graph.ClassConv])
		}
	}
	for _, name := range []string{"seq2seq", "memnet", "speech", "autoenc"} {
		fr := rs[name].Profile.ClassFractions()
		if fr[graph.ClassConv] > 0.001 {
			t.Errorf("%s should contain no convolution, got %.3f", name, fr[graph.ClassConv])
		}
	}
}

func TestAblation(t *testing.T) {
	r, err := Ablation(Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"optimizer", "fused Softmax", "BatchMatMul", "CSE"} {
		if !strings.Contains(r.Text, want) {
			t.Fatalf("ablation missing %q:\n%s", want, r.Text)
		}
	}
	lines := strings.Split(strings.TrimSpace(r.CSV), "\n")
	if len(lines) != 7 { // header + 3 ablations × 2 variants
		t.Fatalf("ablation CSV rows = %d", len(lines))
	}
}

// TestTrainScaling pins the train command's Result shape: the CSV
// carries the scaling and fusion columns, the achievable bound stays
// within [1, replicas], both workloads' loss trajectories are
// bit-identical across replica counts AND across fused trainees (no
// WARNING row), and the fused throughput columns are live.
func TestTrainScaling(t *testing.T) {
	r, err := TrainScaling(tinyOpts(), 2, 4, 1, 2, []string{"autoenc", "memnet"})
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "train" {
		t.Fatalf("ID = %q", r.ID)
	}
	if strings.Contains(r.Text, "WARNING") {
		t.Fatalf("train scaling reports a determinism violation:\n%s", r.Text)
	}
	lines := strings.Split(strings.TrimSpace(r.CSV), "\n")
	if lines[0] != "workload,replicas,chunks,global_batch,steps,final_loss,serial_steps_per_s,parallel_steps_per_s,achieved,achievable,bit_identical,fused_width,fused_trainee_steps_per_s,fused_speedup,fused_identical" {
		t.Fatalf("train CSV header %q", lines[0])
	}
	if len(lines) != 1+2 {
		t.Fatalf("train CSV rows = %d", len(lines))
	}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		if f[10] != "true" {
			t.Errorf("%s: loss trajectory not bit-identical across replica counts", f[0])
		}
		bound, _ := strconv.ParseFloat(f[9], 64)
		if bound < 1 || bound > 2.0001 {
			t.Errorf("%s: achievable %v outside [1, replicas]", f[0], bound)
		}
		if f[11] != "2" || f[14] != "true" {
			t.Errorf("%s: fused columns width=%s identical=%s, want 2/true", f[0], f[11], f[14])
		}
		if rate, _ := strconv.ParseFloat(f[12], 64); rate <= 0 {
			t.Errorf("%s: fused trainee rate %v must be positive", f[0], rate)
		}
	}
}

// TestProfileParallel pins the profile command's Result shape: all
// workloads present, the CSV carries both parallelism axes, and the
// inter-op columns respect achieved ≤ achievable.
func TestProfileParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("profile runs 4 configurations per workload")
	}
	r, err := ProfileParallel(tinyOpts(), core.ModeTraining, 4, 2, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "profile" {
		t.Fatalf("ID = %q", r.ID)
	}
	for _, name := range Workloads() {
		if !strings.Contains(r.Text, name) {
			t.Fatalf("profile missing %s", name)
		}
	}
	lines := strings.Split(strings.TrimSpace(r.CSV), "\n")
	if lines[0] != "workload,ops_per_step,serial_ns,critpath_ns,makespan_ns,achieved,achievable,intraop_modeled,intraop_measured,interop,intraop" {
		t.Fatalf("profile CSV header %q", lines[0])
	}
	if len(lines) != 1+8 {
		t.Fatalf("profile CSV rows = %d", len(lines))
	}
	for _, line := range lines[1:] {
		f := strings.Split(line, ",")
		ach, _ := strconv.ParseFloat(f[5], 64)
		bound, _ := strconv.ParseFloat(f[6], 64)
		// Small tolerance: both are ratios of independently rounded
		// per-step sums.
		if ach > bound*1.02 {
			t.Errorf("%s: achieved %v exceeds achievable %v", f[0], ach, bound)
		}
		if f[9] != "4" || f[10] != "2" {
			t.Errorf("%s: width columns %v,%v want 4,2", f[0], f[9], f[10])
		}
	}
}
