package core

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"graphhd/internal/centrality"
)

func TestModelRoundTrip(t *testing.T) {
	gs, ys := twoClassDataset(20, 31)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != n {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions and similarities on fresh graphs.
	testG, _ := twoClassDataset(10, 131)
	for i, g := range testG {
		if m.Predict(g) != m2.Predict(g) {
			t.Fatalf("prediction mismatch on graph %d", i)
		}
		a, b := m.Similarities(g), m2.Similarities(g)
		for c := range a {
			if a[c] != b[c] {
				t.Fatalf("similarity mismatch class %d: %v vs %v", c, a[c], b[c])
			}
		}
	}
	// Class vectors identical bit for bit.
	for c := 0; c < m.NumClasses(); c++ {
		if !m.ClassVector(c).Equal(m2.ClassVector(c)) {
			t.Fatalf("class %d vector differs after round trip", c)
		}
	}
}

func TestModelRoundTripPreservesConfig(t *testing.T) {
	cfg := testConfig()
	cfg.BipolarClassVectors = true
	cfg.UseVertexLabels = true
	cfg.Centrality = centrality.Degree
	cfg.PageRankIterations = 7
	cfg.PageRankDamping = 0.9
	cfg.Seed = 1234
	gs, ys := twoClassDataset(5, 32)
	m, err := Train(cfg, gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := m2.Encoder().Config()
	if got != cfg {
		t.Fatalf("config round trip: got %+v, want %+v", got, cfg)
	}
}

func TestModelSaveLoadFile(t *testing.T) {
	gs, ys := twoClassDataset(10, 33)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ghd")
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		if m.Predict(g) != m2.Predict(g) {
			t.Fatal("file round trip changed predictions")
		}
	}
}

// TestSaveFileKeepsOldArtifactReadable saves over an artifact while a
// handle is open on it, as a concurrent reload would: the handle must
// still read the complete old record, the path must hold the new one,
// and no temp file may be left behind. Truncating in place fails this.
func TestSaveFileKeepsOldArtifactReadable(t *testing.T) {
	train := func(seed uint64) *Model {
		gs, ys := twoClassDataset(10, seed)
		m, err := Train(testConfig(), gs, ys)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m1, m2 := train(33), train(34)
	type artifact interface {
		io.WriterTo
		SaveFile(path string) error
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		name     string
		old, new artifact
		load     func(io.Reader) error
	}{
		{"model.ghd", m1, m2, func(r io.Reader) error { _, err := ReadModel(r); return err }},
		{"model.ghdp", m1.Snapshot(), m2.Snapshot(), func(r io.Reader) error { _, err := ReadPredictor(r); return err }},
	} {
		path := filepath.Join(dir, tc.name)
		if err := tc.old.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		held, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer held.Close()
		if err := tc.new.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		var oldRec, newRec bytes.Buffer
		tc.old.WriteTo(&oldRec)
		tc.new.WriteTo(&newRec)
		got, err := io.ReadAll(held)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, oldRec.Bytes()) {
			t.Fatalf("%s: open handle did not read the complete old artifact", tc.name)
		}
		if err := tc.load(bytes.NewReader(got)); err != nil {
			t.Fatalf("%s: old artifact no longer loads: %v", tc.name, err)
		}
		if cur, err := os.ReadFile(path); err != nil || !bytes.Equal(cur, newRec.Bytes()) {
			t.Fatalf("%s: path does not hold the new artifact (err %v)", tc.name, err)
		}
		if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
			t.Fatalf("%s: saved artifact mode %v (err %v), want 0644", tc.name, fi.Mode(), err)
		}
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 2 {
		t.Fatalf("save left %d directory entries (err %v), want 2", len(entries), err)
	}
	if err := m1.SaveFile(filepath.Join(dir, "missing", "model.ghd")); err == nil {
		t.Fatal("save into a missing directory succeeded")
	}
}

func TestLoadModelFileMissing(t *testing.T) {
	if _, err := LoadModelFile(filepath.Join(t.TempDir(), "nope.ghd")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestReadModelRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________________________"),
	}
	for i, c := range cases {
		if _, err := ReadModel(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadModelRejectsTruncated(t *testing.T) {
	gs, ys := twoClassDataset(5, 34)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, 40, len(full) / 2, len(full) - 1} {
		if _, err := ReadModel(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestModelRoundTripSupportsOnlineContinuation(t *testing.T) {
	// A loaded model must keep learning: accumulators are live state.
	gs, ys := twoClassDataset(10, 35)
	m, err := Train(testConfig(), gs, ys)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	moreG, moreY := twoClassDataset(5, 36)
	for i, g := range moreG {
		if _, err := m2.Learn(g, moreY[i]); err != nil {
			t.Fatal(err)
		}
	}
	// And the continued model should still classify well.
	c := 0
	for i, g := range gs {
		if m2.Predict(g) == ys[i] {
			c++
		}
	}
	if float64(c)/float64(len(gs)) < 0.8 {
		t.Fatal("continued model degraded")
	}
}
