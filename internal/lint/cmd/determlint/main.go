// Command determlint checks the measured packages for nondeterminism.
//
// Usage:
//
//	go run ./internal/lint/cmd/determlint ./...
//	go run ./internal/lint/cmd/determlint -all ./...
//
// Package patterns are directories, with "..." expanding recursively.
// Without -all, only the measured roots (internal/machine, internal/isa,
// internal/core, internal/stats, internal/audit, internal/server,
// internal/cluster, internal/memo) are checked — the determinism contract
// applies to the measurement core and the serving layers whose output must
// be byte-identical, not to drivers or tests. Exit status is 1 when any
// finding is reported, 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"biaslab/internal/lint"
)

// measuredRoots are the packages the determinism contract covers, relative
// to the module root: the measurement core proper, plus the serving layers
// whose output must be byte-identical across runs (results, rendered
// reports, audit findings), the statistics package behind every interval,
// and the memo they cache through. Genuine wall-clock machinery (cluster
// leases, heartbeats) carries //determlint:allow annotations at each use.
var measuredRoots = []string{
	filepath.Join("internal", "machine"),
	filepath.Join("internal", "isa"),
	filepath.Join("internal", "core"),
	filepath.Join("internal", "stats"),
	filepath.Join("internal", "audit"),
	filepath.Join("internal", "server"),
	filepath.Join("internal", "cluster"),
	filepath.Join("internal", "memo"),
}

func main() {
	all := flag.Bool("all", false, "check every package, not just the measured roots")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: determlint [-all] <dir|pattern>...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	var dirs []string
	for _, pat := range flag.Args() {
		expanded, err := expand(pat)
		if err != nil {
			fmt.Fprintf(os.Stderr, "determlint: %v\n", err)
			os.Exit(2)
		}
		dirs = append(dirs, expanded...)
	}

	nFindings := 0
	for _, dir := range dirs {
		if !*all && !inMeasuredRoot(dir) {
			continue
		}
		findings, err := lint.CheckDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "determlint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, f := range findings {
			fmt.Println(f)
			nFindings++
		}
	}
	if nFindings > 0 {
		fmt.Fprintf(os.Stderr, "determlint: %d finding(s)\n", nFindings)
		os.Exit(1)
	}
}

// expand turns a "./..."-style pattern into the list of directories that
// contain Go files, skipping testdata and dot-directories.
func expand(pat string) ([]string, error) {
	if !strings.HasSuffix(pat, "...") {
		return []string{filepath.Clean(pat)}, nil
	}
	root := filepath.Clean(strings.TrimSuffix(pat, "..."))
	if root == "" {
		root = "."
	}
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// inMeasuredRoot reports whether dir is one of the measured packages or a
// subdirectory of one.
func inMeasuredRoot(dir string) bool {
	clean := filepath.Clean(dir)
	for _, root := range measuredRoots {
		if clean == root || strings.HasSuffix(clean, string(filepath.Separator)+root) ||
			strings.Contains(clean, string(filepath.Separator)+root+string(filepath.Separator)) {
			return true
		}
	}
	return false
}
