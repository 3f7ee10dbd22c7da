// Package fuzzcorpus reads checked-in "go test fuzz v1" corpora, so that
// tests outside a fuzz target's own package can replay the inputs the
// fuzzers have already found.
package fuzzcorpus

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Input is one corpus file of a fuzz target taking a single []byte.
type Input struct {
	Name string
	Data []byte
}

// Read returns every input of the corpus directory dir, in name order.
func Read(dir string) ([]Input, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("reading corpus %s: %w", dir, err)
	}
	out := make([]Input, 0, len(entries))
	for _, e := range entries {
		data, err := load(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("corpus %s/%s: %w", dir, e.Name(), err)
		}
		out = append(out, Input{Name: e.Name(), Data: data})
	}
	return out, nil
}

// load parses one corpus file with a single []byte argument.
func load(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "go test fuzz") {
		return nil, fmt.Errorf("not a fuzz corpus file")
	}
	body := strings.TrimSuffix(strings.TrimPrefix(strings.TrimSpace(lines[1]), "[]byte("), ")")
	s, err := strconv.Unquote(body)
	if err != nil {
		return nil, fmt.Errorf("unquoting corpus payload: %w", err)
	}
	return []byte(s), nil
}
