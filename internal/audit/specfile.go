package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"biaslab/internal/server"
	"biaslab/internal/spec"
)

// Spec files are JSON with `//` line comments, because suppressions live
// in comments: a directive line
//
//	//audit:allow single-setup
//
// anywhere in the file suppresses that rule for every spec in the file —
// still reported, no longer gating — exactly like determlint's
// //determlint:allow. spec.StripComments reads the comments for every
// kind of spec file; this package checks the rule ids. A file holds one
// JobSpec, an array of JobSpecs (audited together, so the cross-spec rules
// see the whole comparison), a declarative bias-on-demand file, or a
// stored Result envelope (audited with the result-level rules too).

// LoadFile reads a spec file into audit inputs.
func LoadFile(path string) ([]Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseFile(path, raw)
}

// ParseFile parses spec-file bytes: strips comments, checks the
// //audit:allow directives against the rule catalog, and detects the
// payload shape.
func ParseFile(path string, raw []byte) ([]Spec, error) {
	stripped, allow, err := spec.StripComments(raw)
	if err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}
	for _, rule := range allow {
		if !KnownRule(rule) {
			return nil, fmt.Errorf("audit: %s: //audit:allow %s: unknown rule (known: %s)",
				path, rule, strings.Join(Rules(), ", "))
		}
	}
	trimmed := strings.TrimSpace(string(stripped))
	if trimmed == "" {
		return nil, fmt.Errorf("audit: %s: empty spec file", path)
	}

	if strings.HasPrefix(trimmed, "[") {
		var specs []server.JobSpec
		if err := json.Unmarshal([]byte(trimmed), &specs); err != nil {
			return nil, fmt.Errorf("audit: %s: %w", path, err)
		}
		ins := make([]Spec, len(specs))
		for i, s := range specs {
			ins[i] = Spec{File: fmt.Sprintf("%s[%d]", path, i), Spec: s, Allow: allow}
		}
		return ins, nil
	}

	// A declarative bias-on-demand file compiles into jobs; each compiled
	// job is audited as its own spec, so the whole comparison the file
	// describes is judged together (cross-spec rules included). The file's
	// audit_allow field is already stamped onto every compiled job by the
	// compiler; //audit:allow directives are honored here like anywhere
	// else.
	if spec.IsDeclarative([]byte(trimmed)) {
		f, err := spec.Parse([]byte(trimmed))
		if err != nil {
			return nil, fmt.Errorf("audit: %s: %w", path, err)
		}
		jobs, err := f.Compile()
		if err != nil {
			return nil, fmt.Errorf("audit: %s: %w", path, err)
		}
		ins := make([]Spec, len(jobs))
		for i, job := range jobs {
			ins[i] = Spec{File: fmt.Sprintf("%s[%d]", path, i), Spec: job, Allow: allow}
		}
		return ins, nil
	}

	// A Result envelope carries its spec under "spec"; a JobSpec has no
	// such field, whatever the payload kind.
	var probe struct {
		Spec json.RawMessage `json:"spec"`
	}
	if err := json.Unmarshal([]byte(trimmed), &probe); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}
	if probe.Spec != nil {
		res, err := server.DecodeResult([]byte(trimmed))
		if err != nil {
			return nil, fmt.Errorf("audit: %s: %w", path, err)
		}
		return []Spec{{File: path, Spec: res.Spec, Allow: allow, Result: res}}, nil
	}

	var spec server.JobSpec
	if err := json.Unmarshal([]byte(trimmed), &spec); err != nil {
		return nil, fmt.Errorf("audit: %s: %w", path, err)
	}
	return []Spec{{File: path, Spec: spec, Allow: allow}}, nil
}
