package main

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestExperimentTableMatchesDocs holds the dispatch table and the
// experiment index of docs/benchmarking.md to the same ids, so an
// experiment cannot be added or retired in one place only.
func TestExperimentTableMatchesDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/benchmarking.md")
	if err != nil {
		t.Fatal(err)
	}
	_, index, ok := strings.Cut(string(doc), "\n## Experiment index\n")
	if !ok {
		t.Fatal("docs/benchmarking.md has no experiment index section")
	}
	index, _, _ = strings.Cut(index, "\n## ")
	id := regexp.MustCompile("`([a-z0-9]+)`")
	var documented []string
	for _, line := range strings.Split(index, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || strings.Contains(cells[1], "-experiment") {
			continue // not a table row, or the header
		}
		for _, m := range id.FindAllStringSubmatch(cells[1], -1) {
			documented = append(documented, m[1])
		}
	}
	var table []string
	for _, x := range experiments {
		table = append(table, x.id)
	}
	slices.Sort(documented)
	slices.Sort(table)
	if !slices.Equal(documented, table) {
		t.Fatalf("experiment ids differ:\n  basil-bench table: %v\n  docs index:        %v", table, documented)
	}
}
