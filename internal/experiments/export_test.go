package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFigureWriteCSV(t *testing.T) {
	dir := t.TempDir()
	f := Fig4c(testBase())
	files, err := f.WriteCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(f.Series) {
		t.Fatalf("wrote %d files for %d series", len(files), len(f.Series))
	}
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		if lines[0] != "rel_err,cum_frac" {
			t.Fatalf("%s: bad header %q", path, lines[0])
		}
		if len(lines) < 10 {
			t.Fatalf("%s: only %d lines", path, len(lines))
		}
		// Filenames must be filesystem-safe.
		base := filepath.Base(path)
		if strings.ContainsAny(base, " ,()%/") {
			t.Fatalf("unsafe filename %q", base)
		}
	}
}

func TestFig5WriteCSV(t *testing.T) {
	dir := t.TempDir()
	r := Fig5(testBase(), []float64{0.9})
	path, err := r.WriteCSV(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "target_util,") {
		t.Fatalf("bad header in %s", path)
	}
	if len(strings.Split(strings.TrimSpace(string(data)), "\n")) != 2 {
		t.Fatal("expected header + 1 point")
	}
}

func TestSlug(t *testing.T) {
	in := "adaptive(1-and-10..300), random, 93%"
	out := slug(in)
	if strings.ContainsAny(out, " ,()%") {
		t.Fatalf("slug(%q) = %q still unsafe", in, out)
	}
}
