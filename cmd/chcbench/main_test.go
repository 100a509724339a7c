package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chc/internal/experiments"
)

func TestRunSelected(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "E10"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E10") || !strings.Contains(out, "quick mode") {
		t.Errorf("unexpected output:\n%s", out)
	}
}

func TestRunMultiple(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "E10, e11"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "E10") || !strings.Contains(out, "E11") {
		t.Errorf("missing experiments:\n%s", out)
	}
}

func TestRunUnknownID(t *testing.T) {
	var buf bytes.Buffer
	all := experiments.All()
	err := run([]string{"-run", "E99"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "(have E1.."+all[len(all)-1].ID+")") {
		t.Errorf("unknown experiment should error naming the registered range, got %v", err)
	}
}

func TestRunToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.md")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "E10", "-out", path}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "E10") {
		t.Error("file missing experiment output")
	}
	if buf.Len() != 0 {
		t.Error("stdout should be empty when -out is used")
	}
}

func TestRunCSVFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "E10", "-format", "csv"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# E10:") {
		t.Errorf("CSV output missing header comment:\n%s", out)
	}
	// The CSV body must parse.
	var body []string
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		body = append(body, line)
	}
	if len(body) < 2 {
		t.Fatalf("CSV body too short: %d lines", len(body))
	}
	r := csv.NewReader(strings.NewReader(strings.Join(body, "\n")))
	records, err := r.ReadAll()
	if err != nil {
		t.Fatalf("CSV does not parse: %v", err)
	}
	for i, rec := range records[1:] {
		if len(rec) != len(records[0]) {
			t.Errorf("row %d has %d fields, header has %d", i, len(rec), len(records[0]))
		}
	}
}

func TestRunBadFormat(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-run", "E10", "-format", "xml"}, &buf); err == nil {
		t.Error("unknown format should error")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &buf); err == nil {
		t.Error("bad flag should error")
	}
}
