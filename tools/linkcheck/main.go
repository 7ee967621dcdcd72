// Command linkcheck keeps the documentation tree honest: it fails (exit
// 1) when a markdown file references something that no longer exists, so
// ARCHITECTURE.md and docs/ cannot rot silently as the code moves.
//
// Usage: linkcheck FILE.md|DIR [...]  (run from the repo root)
//
// Checked per markdown file:
//
//   - Relative markdown links [text](path) must name an existing file or
//     directory (resolved against the file's own directory, then the
//     repo root). http(s) links are skipped.
//   - Anchor fragments [text](path#anchor) — and intra-file [text](#a) —
//     must match a heading in the target file, using GitHub's slug rules
//     (lowercase, spaces to dashes, punctuation dropped).
//   - Inline code spans that look like repo paths (`internal/store`,
//     `cmd/basil-server/main.go`, optionally with a :line suffix) must
//     exist.
//   - Inline code spans that look like command flags (`-admin-addr`)
//     must be defined by some cmd/* binary (collected by scanning their
//     flag registrations) or belong to the go-tool allowlist (-race,
//     -bench, ...).
package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	linkRe    = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	codeRe    = regexp.MustCompile("`([^`]+)`")
	headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)
	flagDefRe = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)\(\s*"([^"]+)"`)
	// pathish matches repo-relative code spans worth existence-checking.
	pathish = regexp.MustCompile(`^(internal|cmd|docs|examples|basil|tools)(/[A-Za-z0-9_.\-/]*)?(\.[a-z]+)?(:\d+)?$`)
	flagish = regexp.MustCompile(`^-[a-z][a-z0-9-]*$`)
)

// goToolFlags are flags of go test / the benchmarks themselves that docs
// legitimately mention but no cmd/ binary defines.
var goToolFlags = map[string]bool{
	"-race": true, "-bench": true, "-benchtime": true, "-benchmem": true,
	"-run": true, "-count": true, "-v": true, "-cpu": true, "-timeout": true,
	"-walbench": true, "-tags": true,
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: linkcheck FILE.md|DIR [...]")
		os.Exit(2)
	}
	definedFlags, err := collectFlags("cmd")
	if err != nil {
		fmt.Fprintf(os.Stderr, "linkcheck: scanning cmd flags: %v\n", err)
		os.Exit(2)
	}

	var files []string
	for _, arg := range os.Args[1:] {
		info, err := os.Stat(arg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
		if info.IsDir() {
			_ = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
				if err == nil && !d.IsDir() && strings.HasSuffix(p, ".md") {
					files = append(files, p)
				}
				return nil
			})
		} else {
			files = append(files, arg)
		}
	}

	problems := 0
	report := func(file, format string, args ...any) {
		fmt.Printf("linkcheck: %s: %s\n", file, fmt.Sprintf(format, args...))
		problems++
	}

	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "linkcheck: %v\n", err)
			os.Exit(2)
		}
		body := string(data)
		dir := filepath.Dir(file)

		for _, m := range linkRe.FindAllStringSubmatch(body, -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			path, anchor, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = resolve(dir, path)
				if resolved == "" {
					report(file, "broken link %q: no such file", target)
					continue
				}
			}
			if anchor != "" {
				if !strings.HasSuffix(resolved, ".md") {
					continue // anchors into non-markdown are not ours to judge
				}
				if !hasAnchor(resolved, anchor) {
					report(file, "link %q: no heading matches #%s in %s", target, anchor, resolved)
				}
			}
		}

		for _, m := range codeRe.FindAllStringSubmatch(body, -1) {
			span := strings.TrimSpace(m[1])
			if pathish.MatchString(span) {
				p := span
				if i := strings.LastIndex(p, ":"); i > 0 && regexp.MustCompile(`^\d+$`).MatchString(p[i+1:]) {
					p = p[:i]
				}
				if resolve(".", p) == "" && resolve(dir, p) == "" {
					report(file, "code span `%s`: no such path", span)
				}
				continue
			}
			if flagish.MatchString(span) && !goToolFlags[span] && !definedFlags[span] {
				report(file, "code span `%s`: no cmd/* binary defines this flag", span)
			}
		}
	}
	if problems > 0 {
		os.Exit(1)
	}
	fmt.Printf("linkcheck: %d files clean\n", len(files))
}

// resolve returns the existing path for p relative to dir (or the repo
// root as a fallback), "" if neither exists.
func resolve(dir, p string) string {
	for _, cand := range []string{filepath.Join(dir, p), p} {
		if _, err := os.Stat(cand); err == nil {
			return cand
		}
	}
	return ""
}

// hasAnchor reports whether md contains a heading whose GitHub slug (or
// raw lowercase text) equals anchor.
func hasAnchor(md, anchor string) bool {
	data, err := os.ReadFile(md)
	if err != nil {
		return false
	}
	anchor = strings.ToLower(anchor)
	for _, h := range headingRe.FindAllStringSubmatch(string(data), -1) {
		if slugify(h[1]) == anchor {
			return true
		}
	}
	return false
}

// slugify applies GitHub's heading-anchor rules: lowercase, drop
// everything but letters/digits/spaces/dashes, spaces become dashes.
func slugify(s string) string {
	s = strings.ToLower(strings.TrimSpace(s))
	// Strip inline code markers and links before slugging.
	s = strings.NewReplacer("`", "", "[", "", "]", "").Replace(s)
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteRune(r)
		case r == ' ':
			b.WriteRune('-')
		}
	}
	return b.String()
}

// collectFlags scans cmd/*/main.go (well, every .go file under root) for
// flag registrations and returns the set of "-name" strings they define.
func collectFlags(root string) (map[string]bool, error) {
	flags := make(map[string]bool)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		for _, m := range flagDefRe.FindAllStringSubmatch(string(data), -1) {
			flags["-"+m[1]] = true
		}
		return nil
	})
	return flags, err
}
