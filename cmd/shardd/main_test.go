package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
)

// A corrupt advice file is a configuration error, reported before the
// worker touches the network, not a panic.
func TestRunRejectsCorruptAdviceFile(t *testing.T) {
	dir := t.TempDir()
	graphPath := filepath.Join(dir, "g.bin")
	if err := graph.SaveBinaryFile(graph.Path(5), graphPath); err != nil {
		t.Fatal(err)
	}
	advPath := filepath.Join(dir, "adv.txt")
	if err := os.WriteFile(advPath, []byte("0011010x00\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(0, 2, 0, graphPath, advPath, "tcp", "127.0.0.1:1", "127.0.0.1:1,127.0.0.1:2", "", 0, "", 0, 0)
	if err == nil || !strings.Contains(err.Error(), "invalid character 'x' at offset 7") {
		t.Fatalf("run with a corrupt advice file: %v", err)
	}
}
