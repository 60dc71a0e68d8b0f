package check

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// SARIF 2.1.0 output: the static-analysis interchange format GitHub
// code scanning, VS Code SARIF viewers and most CI systems ingest. Only
// the schema subset the checker populates is modeled — tool metadata
// with one reportingDescriptor per (pass, rule), and one result per
// diagnostic with physical location (line = IR Loc + 1), logical
// location (enclosing function), partialFingerprints (the baseline
// suppression key) and relatedLocations (witnesses). The run's one
// invocation says whether every pass completed: executionSuccessful is
// false when some pass ran out of its deadline or failed, and each such
// pass has a notification, so a consumer does not take a degraded
// pass's findings for a complete run's.

const (
	sarifVersion = "2.1.0"
	sarifSchema  = "https://json.schemastore.org/sarif-2.1.0.json"
	// FingerprintKey is the partialFingerprints entry carrying the
	// diagnostic's stable fingerprint; versioned so a future hash change
	// does not silently mismatch old baselines.
	FingerprintKey = "aliaslint/v1"
)

type sarifLog struct {
	Version string     `json:"version"`
	Schema  string     `json:"$schema"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool        sarifTool         `json:"tool"`
	Results     []sarifResult     `json:"results"`
	Invocations []sarifInvocation `json:"invocations,omitempty"`
}

type sarifInvocation struct {
	ExecutionSuccessful        bool                `json:"executionSuccessful"`
	ToolExecutionNotifications []sarifNotification `json:"toolExecutionNotifications,omitempty"`
}

// sarifNotification reports one pass that did not complete; its
// property bag names the pass.
type sarifNotification struct {
	Level      string            `json:"level"`
	Message    sarifMessage      `json:"message"`
	Properties map[string]string `json:"properties"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID              string            `json:"ruleId"`
	Level               string            `json:"level"`
	Message             sarifMessage      `json:"message"`
	Locations           []sarifLocation   `json:"locations"`
	RelatedLocations    []sarifLocation   `json:"relatedLocations,omitempty"`
	PartialFingerprints map[string]string `json:"partialFingerprints"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical  `json:"physicalLocation"`
	LogicalLocations []sarifLogical `json:"logicalLocations,omitempty"`
	Message          *sarifMessage  `json:"message,omitempty"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine int `json:"startLine"`
}

type sarifLogical struct {
	FullyQualifiedName string `json:"fullyQualifiedName"`
	Kind               string `json:"kind,omitempty"`
}

// ruleID qualifies a rule with its pass ("lockset/race").
func ruleID(pass, rule string) string { return pass + "/" + rule }

// WriteSARIF renders the report as a SARIF 2.1.0 log with one run.
func WriteSARIF(w io.Writer, rep *Report) error {
	driver := sarifDriver{Name: "aliaslint"}
	ruleSeen := map[string]bool{}
	for _, res := range rep.Results {
		for _, d := range res.Diags {
			id := ruleID(d.Pass, d.Rule)
			if ruleSeen[id] {
				continue
			}
			ruleSeen[id] = true
			driver.Rules = append(driver.Rules, sarifRule{
				ID:               id,
				ShortDescription: sarifMessage{Text: res.Doc},
			})
		}
	}
	sort.Slice(driver.Rules, func(i, j int) bool { return driver.Rules[i].ID < driver.Rules[j].ID })

	results := []sarifResult{} // non-nil: SARIF requires the property
	loc := func(l sarifRegionLine, fn, msg string) sarifLocation {
		sl := sarifLocation{
			PhysicalLocation: sarifPhysical{
				ArtifactLocation: sarifArtifact{URI: rep.Source},
				Region:           sarifRegion{StartLine: int(l) + 1},
			},
		}
		if fn != "" {
			sl.LogicalLocations = []sarifLogical{{FullyQualifiedName: fn, Kind: "function"}}
		}
		if msg != "" {
			sl.Message = &sarifMessage{Text: msg}
		}
		return sl
	}
	for _, res := range rep.Results {
		for _, d := range res.Diags {
			r := sarifResult{
				RuleID:    ruleID(d.Pass, d.Rule),
				Level:     d.Severity.String(),
				Message:   sarifMessage{Text: d.Message},
				Locations: []sarifLocation{loc(sarifRegionLine(d.Loc), d.Func, "")},
				PartialFingerprints: map[string]string{
					FingerprintKey: d.Fingerprint,
				},
			}
			if d.Snapshot != 0 {
				r.PartialFingerprints["aliaslint/snapshot"] = fmt.Sprint(d.Snapshot)
			}
			for _, rel := range d.Related {
				r.RelatedLocations = append(r.RelatedLocations, loc(sarifRegionLine(rel.Loc), "", rel.Message))
			}
			results = append(results, r)
		}
	}

	// A pass that ran out of its deadline is incomplete, even when the
	// deadline is also its error; any other error is a failure.
	inv := sarifInvocation{ExecutionSuccessful: true}
	for _, res := range rep.Results {
		failed := res.Err != nil && !errors.Is(res.Err, context.DeadlineExceeded) && !errors.Is(res.Err, context.Canceled)
		if !res.Incomplete && !failed {
			continue
		}
		inv.ExecutionSuccessful = false
		n := sarifNotification{
			Level:      "warning",
			Message:    sarifMessage{Text: fmt.Sprintf("pass %s incomplete: deadline expired", res.Pass)},
			Properties: map[string]string{"pass": res.Pass},
		}
		if failed {
			n.Level = "error"
			n.Message.Text = fmt.Sprintf("pass %s failed: %v", res.Pass, res.Err)
		}
		inv.ToolExecutionNotifications = append(inv.ToolExecutionNotifications, n)
	}

	log := sarifLog{
		Version: sarifVersion,
		Schema:  sarifSchema,
		Runs: []sarifRun{{
			Tool:        sarifTool{Driver: driver},
			Results:     results,
			Invocations: []sarifInvocation{inv},
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// sarifRegionLine is an IR Loc widened for line arithmetic.
type sarifRegionLine int64

// ReadBaseline extracts the fingerprint set from a previous run's SARIF
// log — the -baseline input that suppresses known findings.
func ReadBaseline(r io.Reader) (map[string]bool, error) {
	var log sarifLog
	if err := json.NewDecoder(r).Decode(&log); err != nil {
		return nil, fmt.Errorf("check: parsing baseline SARIF: %w", err)
	}
	out := map[string]bool{}
	for _, run := range log.Runs {
		for _, res := range run.Results {
			if fp := res.PartialFingerprints[FingerprintKey]; fp != "" {
				out[fp] = true
			}
		}
	}
	return out, nil
}
