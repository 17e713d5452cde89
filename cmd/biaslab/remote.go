package main

import (
	"fmt"
	"os"

	"biaslab"
	"biaslab/internal/server"
	"biaslab/internal/server/client"
)

// runSpec is the single execution path behind run, sweep-env, sweep-link
// and randomize: canonicalize the spec, execute it — locally through the
// same server.Execute the daemon's workers call, or remotely through a
// biaslabd daemon — and render the result through the shared renderers.
// Local and remote output are byte-identical by construction.
func (a *app) runSpec(spec server.JobSpec) error {
	canonical, err := spec.Canonicalize()
	if err != nil {
		return usageError{err}
	}
	if a.server != "" {
		res, raw, err := a.remoteResult(canonical)
		if err != nil {
			return err
		}
		return a.render(res, raw)
	}
	res, err := server.Execute(a.ctx, biaslab.NewRunner(a.size), canonical, a.ck, nil)
	if err != nil {
		return err
	}
	return a.render(res, nil)
}

// remoteResult submits a canonical spec to the -server daemon, streams its
// progress events to stderr, and fetches the stored result: both its
// decoded form and the raw stored bytes, which are exactly the bytes the
// same job produces locally.
func (a *app) remoteResult(spec server.JobSpec) (*server.Result, []byte, error) {
	cl := client.New(a.server)
	sub, err := cl.Submit(a.ctx, spec)
	if err != nil {
		return nil, nil, err
	}
	// Daemon-side audit findings are advisory on a normal submission;
	// surface them on stderr so the rendered result stays byte-identical
	// to a local run.
	for _, f := range sub.Audit {
		suffix := ""
		if f.Suppressed {
			suffix = " (suppressed)"
		}
		fmt.Fprintf(os.Stderr, "biaslab: audit %s %s: %s%s\n", f.Severity, f.Rule, f.Message, suffix)
	}
	if sub.Cached {
		fmt.Fprintf(os.Stderr, "biaslab: %s: result %s served from cache\n", a.server, sub.Key)
	} else {
		if sub.InFlight {
			fmt.Fprintf(os.Stderr, "biaslab: %s: joined in-flight job %s\n", a.server, sub.ID)
		}
		if err := a.watchRemote(cl, sub.ID); err != nil {
			return nil, nil, err
		}
	}
	return cl.Result(a.ctx, sub.Key)
}

// watchRemote follows a job's SSE stream, echoing per-point progress to
// stderr, until the job reaches a terminal state; a failed or canceled job
// becomes an error.
func (a *app) watchRemote(cl *client.Client, id string) error {
	st, err := cl.Follow(a.ctx, id, func(ev server.Event) {
		if ev.Type != "point" {
			return
		}
		mark := ""
		if ev.Replayed {
			mark = " (replayed)"
		}
		fmt.Fprintf(os.Stderr, "biaslab: point %d/%d %s%s\n", ev.Done, ev.Total, ev.Key, mark)
	})
	if err != nil {
		return err
	}
	switch st.State {
	case server.StateDone:
		return nil
	case server.StateCanceled:
		return fmt.Errorf("job %s canceled by the server (daemon draining?)", id)
	default:
		if st.Error != nil {
			return fmt.Errorf("job %s failed: %s", id, st.Error.Message)
		}
		return fmt.Errorf("job %s finished %s", id, st.State)
	}
}

// render prints a result: raw canonical JSON under -json, CSV under -csv,
// rendered text otherwise. raw may be nil (local runs); it is encoded on
// demand, producing exactly the bytes a daemon would have stored.
func (a *app) render(res *server.Result, raw []byte) error {
	switch {
	case a.jsonOut:
		if raw == nil {
			var err error
			raw, err = server.EncodeResult(res)
			if err != nil {
				return err
			}
		}
		os.Stdout.Write(raw)
		fmt.Println()
	case a.csv:
		s, err := server.RenderCSV(res)
		if err != nil {
			return err
		}
		fmt.Print(s)
	default:
		s, err := server.RenderText(res)
		if err != nil {
			return err
		}
		fmt.Print(s)
	}
	return nil
}

// experimentResult resolves one experiment id — remotely as a daemon job,
// or locally through the shared Execute path (which drives the same Lab
// the text-mode CLI uses).
func (a *app) experimentResult(id string) (*server.Result, []byte, error) {
	spec := server.JobSpec{Kind: server.KindExperiment, Experiment: id, Size: a.size.String()}
	canonical, err := spec.Canonicalize()
	if err != nil {
		return nil, nil, usageError{err}
	}
	if a.server != "" {
		return a.remoteResult(canonical)
	}
	res, err := server.Execute(a.ctx, biaslab.NewRunner(a.size), canonical, a.ck, nil)
	if err != nil {
		return nil, nil, err
	}
	return res, nil, nil
}
