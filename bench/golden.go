package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// goldenFile holds the result digests known to be correct: fleet report
// digests by trace seed, and paper-eval result digests by run seed and
// experiment.
type goldenFile struct {
	Fleet map[string]string            `json:"fleet-hyperscale"`
	Eval  map[string]map[string]string `json:"paper-eval"`
}

// The golden file covers fleet trace seeds 0 to fleetGoldenSeeds-1 and
// paper-eval run seeds 0 to evalGoldenSeeds-1. A run reduces its seeds
// modulo these counts, so every result it computes has a golden digest,
// whatever --seed it was given.
const (
	fleetGoldenSeeds = 82
	evalGoldenSeeds  = 21
)

//go:embed golden.json
var goldenJSON []byte

var golden = func() goldenFile {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: golden.json: %v", err))
	}
	return g
}()

// updateGolden writes a run's digests into the golden file at path,
// replacing those of the same seeds, for when a change is meant to alter
// results. The run itself is still checked against the old digests.
func updateGolden(path string, seed uint64, fleet *fleetResult, eval *evalResult) error {
	g := goldenFile{Fleet: map[string]string{}, Eval: map[string]map[string]string{}}
	for s, d := range golden.Fleet {
		g.Fleet[s] = d
	}
	for s, d := range golden.Eval {
		g.Eval[s] = d
	}
	if fleet != nil {
		for s, d := range fleet.digests() {
			g.Fleet[strconv.FormatUint(s, 10)] = d
		}
	}
	if eval != nil && len(eval.digests) == len(evalNames) {
		g.Eval[strconv.FormatUint(seed%evalGoldenSeeds, 10)] = eval.digests
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
