package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// specFile is the benchmark's description at the checkout root. It
// names the metrics a run must report; the run reads it so the two
// cannot drift apart.
const specFile = "BENCHMARK.json"

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec() (*spec, error) {
	b, err := os.ReadFile(specFile)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specFile, err)
	}
	return &s, nil
}

// conform makes rep report exactly the listed metrics. A listed metric
// the run did not produce is an error when required; otherwise it reads
// 0, which for a per-layer metric means the workload does not use that
// layer or statement kind. A produced metric that is not listed goes to
// standard error only.
func conform(rep *report, list []specMetric, required bool) error {
	out := make(map[string]metric, len(list))
	for _, m := range list {
		v, ok := rep.Metrics[m.Name]
		switch {
		case ok && v.Unit != m.Unit:
			return fmt.Errorf("metric %s is in %s, %s lists %s", m.Name, v.Unit, specFile, m.Unit)
		case ok:
			out[m.Name] = v
		case required:
			return fmt.Errorf("metric %s was not measured", m.Name)
		default:
			out[m.Name] = metric{0, m.Unit}
		}
	}
	for _, name := range sortedKeys(rep.Metrics) {
		if _, ok := out[name]; !ok {
			fmt.Fprintf(os.Stderr, "  (not in %s) %s %.4f %s\n", specFile, name, rep.Metrics[name].Value, rep.Metrics[name].Unit)
		}
	}
	rep.Metrics = out
	return nil
}
