// Command docscheck is the CI documentation gate.  It fails (exit 1) when
// the repository's documentation contract is violated:
//
//   - every Go package under internal/ and cmd/, plus the root package, must
//     have a package comment (the doc comment attached to some file's
//     `package` clause);
//   - every relative link in the top-level markdown files must point at a
//     file or directory that exists;
//   - every `FILE.md §"Section title"` cross-reference in those files must
//     resolve to a heading of the referenced file — this is what keeps
//     section renumbering honest;
//   - every backticked metric name cited in those files (`ambit_...` or
//     `svc_...`, labels and exposition suffixes included) must trace back to
//     a metric name registered somewhere in the non-test Go sources — docs
//     may not advertise series /metrics does not serve.
//   - the Architecture tree in README.md must match internal/: every
//     `internal/<pkg>` it names must exist as a directory, and every
//     top-level directory under internal/ must be named in it.
//   - every test those files cite (a backticked `Test…`, `Benchmark…` or
//     `Fuzz…`, up to any `/`) and every name in a `-run '…'` pattern of the
//     CI workflow must be declared in some _test.go file: `go test -run`
//     with a pattern naming a deleted test runs nothing and still passes.
//   - every Go file those files cite (a backticked `….go`) must exist: a
//     path containing `/` resolves from the repository root, and a bare
//     name must be the name of some .go file in the repository.
//   - every `-flag` that follows `go run ./cmd/<tool>` on a line of those
//     files or of the CI workflow (a line ending in `\` continues onto the
//     next) must be declared in cmd/<tool>'s non-test sources: a command
//     the docs teach must still parse.
//
// Usage:
//
//	go run ./cmd/docscheck        # from the repository root
//
// It needs no flags and prints one line per violation.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// markdownFiles are the documents whose links and cross-references are
// checked.  Missing files are themselves violations.
var markdownFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}

// ciWorkflow is the CI workflow whose -run patterns must name real tests and
// whose tool command lines must use declared flags.
const ciWorkflow = ".github/workflows/ci.yml"

func main() {
	var violations []string

	violations = append(violations, checkPackageComments(".")...)
	corpus, corpusViolations := goSourceCorpus(".")
	violations = append(violations, corpusViolations...)
	for _, md := range markdownFiles {
		violations = append(violations, checkMarkdown(md)...)
		violations = append(violations, checkMetricNames(md, corpus)...)
	}
	violations = append(violations, checkArchitectureTree("README.md", "internal")...)
	violations = append(violations, checkTestNames(".", markdownFiles, ciWorkflow)...)
	violations = append(violations, checkGoFiles(".", markdownFiles)...)
	violations = append(violations, checkToolFlags(".", append(slices.Clone(markdownFiles), ciWorkflow))...)

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "docscheck: "+v)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d violation(s)\n", len(violations))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// checkPackageComments walks the module and reports every package directory
// (root, internal/..., cmd/...) without a package doc comment.
func checkPackageComments(root string) []string {
	dirs := map[string][]string{} // dir -> non-test .go files
	err := walkGoFiles(root, func(path string) error {
		if !strings.HasSuffix(path, "_test.go") {
			dir := filepath.Dir(path)
			dirs[dir] = append(dirs[dir], path)
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("walking %s: %v", root, err)}
	}

	var out []string
	fset := token.NewFileSet()
	for dir, files := range dirs {
		sort.Strings(files)
		documented := false
		for _, f := range files {
			src, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				out = append(out, fmt.Sprintf("%s: %v", f, err))
				continue
			}
			if src.Doc != nil && strings.TrimSpace(src.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			out = append(out, fmt.Sprintf("%s: package has no package comment", dir))
		}
	}
	sort.Strings(out)
	return out
}

// walkGoFiles calls fn with the path of every .go file under root, skipping
// hidden directories, testdata and examples.
func walkGoFiles(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if name := d.Name(); (strings.HasPrefix(name, ".") && path != root) || name == "testdata" || name == "examples" {
				return filepath.SkipDir
			}
		case strings.HasSuffix(path, ".go"):
			return fn(path)
		}
		return nil
	})
}

// goSourceCorpus concatenates every non-test .go file so metric-name
// citations can be traced back to the string literals that register them.
func goSourceCorpus(root string) (string, []string) {
	var b strings.Builder
	err := walkGoFiles(root, func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b.Write(data)
		b.WriteByte('\n')
		return nil
	})
	if err != nil {
		return b.String(), []string{fmt.Sprintf("walking %s: %v", root, err)}
	}
	return b.String(), nil
}

// metricRefRe matches backticked metric citations: `ambit_...` or `svc_...`,
// optionally with a {label="..."} set and/or an exposition suffix.
var metricRefRe = regexp.MustCompile("`((?:ambit_|svc_)[a-z0-9_]+)(\\{[^`]*\\})?`")

// checkMetricNames verifies that every metric name a document cites is
// registered somewhere in the Go sources.  Citations are normalized — labels
// dropped, the exposition `ambit_` prefix and `_total`/`_bucket`/`_sum`/
// `_count` suffixes stripped — and each candidate base name must occur as a
// quoted string literal (with or without the `ambit_` prefix) in non-test
// code.
func checkMetricNames(path, corpus string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var out []string
	seen := map[string]bool{}
	for _, m := range metricRefRe.FindAllStringSubmatch(string(data), -1) {
		cited := m[1]
		if seen[cited] {
			continue
		}
		seen[cited] = true
		bases := []string{cited, strings.TrimPrefix(cited, "ambit_")}
		for _, suffix := range []string{"_total", "_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(bases[1], suffix); trimmed != bases[1] {
				bases = append(bases, trimmed)
			}
		}
		found := false
		for _, base := range bases {
			if strings.Contains(corpus, fmt.Sprintf("%q", base)) ||
				strings.Contains(corpus, fmt.Sprintf("%q", "ambit_"+base)) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, fmt.Sprintf("%s: cites metric %q not registered in any non-test .go source", path, cited))
		}
	}
	return out
}

var (
	// linkRe matches [text](target) markdown links, including images.
	linkRe = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	// sectionRefRe matches prose cross-references of the form
	// `FILE.md §"Section title"`.
	sectionRefRe = regexp.MustCompile(`([A-Za-z0-9_-]+\.md) §"([^"]+)"`)
	// headingRe matches ATX headings.
	headingRe = regexp.MustCompile(`(?m)^#{1,6}\s+(.+?)\s*$`)
)

// checkMarkdown validates relative links and §-style cross-references in one
// markdown file.
func checkMarkdown(path string) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	text := string(data)
	var out []string

	for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
		target := m[1]
		if u, err := url.Parse(target); err == nil && u.Scheme != "" {
			continue // external link; not checked
		}
		if strings.HasPrefix(target, "#") {
			continue // intra-document anchor
		}
		target = strings.SplitN(target, "#", 2)[0]
		rel := filepath.Join(filepath.Dir(path), target)
		if _, err := os.Stat(rel); err != nil {
			out = append(out, fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[0], rel))
		}
	}

	headings := map[string][]string{} // file -> headings, lazily loaded
	for _, m := range sectionRefRe.FindAllStringSubmatch(text, -1) {
		file, section := m[1], m[2]
		hs, ok := headings[file]
		if !ok {
			fdata, err := os.ReadFile(filepath.Join(filepath.Dir(path), file))
			if err != nil {
				out = append(out, fmt.Sprintf("%s: cross-reference to missing file %s", path, file))
				headings[file] = nil
				continue
			}
			for _, h := range headingRe.FindAllStringSubmatch(string(fdata), -1) {
				hs = append(hs, h[1])
			}
			headings[file] = hs
		}
		found := false
		for _, h := range hs {
			if strings.Contains(h, section) {
				found = true
				break
			}
		}
		if !found {
			out = append(out, fmt.Sprintf("%s: %s §%q does not match any heading of %s", path, file, section, file))
		}
	}
	return out
}

// treePkgRe matches a package the Architecture tree names, capturing its
// top-level directory under internal/.
var treePkgRe = regexp.MustCompile(`internal/([A-Za-z0-9_]+)`)

// checkArchitectureTree compares the fenced tree under readme's
// "## Architecture" heading with the directories under internalDir, both
// ways: a named package that does not exist and a directory the tree omits
// are each a violation.
func checkArchitectureTree(readme, internalDir string) []string {
	data, err := os.ReadFile(readme)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", readme, err)}
	}
	_, section, ok := strings.Cut(string(data), "\n## Architecture\n")
	if ok {
		section, _, _ = strings.Cut(section, "\n## ")
		_, section, ok = strings.Cut(section, "```")
		section, _, _ = strings.Cut(section, "```")
	}
	if !ok {
		return []string{fmt.Sprintf("%s: no fenced tree under \"## Architecture\"", readme)}
	}
	named := map[string]bool{}
	for _, m := range treePkgRe.FindAllStringSubmatch(section, -1) {
		named[m[1]] = true
	}
	entries, err := os.ReadDir(internalDir)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", internalDir, err)}
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if !named[e.Name()] {
			out = append(out, fmt.Sprintf("%s: Architecture tree omits %s/%s", readme, internalDir, e.Name()))
		}
		delete(named, e.Name())
	}
	for pkg := range named {
		out = append(out, fmt.Sprintf("%s: Architecture tree names %s/%s, which is not a directory", readme, internalDir, pkg))
	}
	sort.Strings(out)
	return out
}

var (
	// testDeclRe matches a top-level test, benchmark or fuzz function.
	testDeclRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	// testCiteRe matches a backticked test name in prose; the name ends at
	// the first non-identifier character, so `TestX/sub` cites TestX.
	testCiteRe = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)\\w*)[^`]*`")
	// runPatternRe matches a quoted `go test -run` pattern.
	runPatternRe = regexp.MustCompile(`-run '([^']*)'`)
)

// checkTestNames reports every test name the docs or the CI workflow's -run
// patterns cite that no _test.go file under root declares.  A -run pattern
// is split on "|" and stripped of ^/$ anchors; an empty remainder (-run
// '^$') names nothing.
func checkTestNames(root string, docs []string, ci string) []string {
	declared := map[string]bool{}
	err := walkGoFiles(root, func(path string) error {
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testDeclRe.FindAllSubmatch(data, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("walking %s: %v", root, err)}
	}
	var out []string
	reported := map[string]bool{}
	check := func(file, name string) {
		if !declared[name] && !reported[file+" "+name] {
			reported[file+" "+name] = true
			out = append(out, fmt.Sprintf("%s: cites test %s, which no _test.go file declares", file, name))
		}
	}
	for _, md := range docs {
		data, err := os.ReadFile(filepath.Join(root, md))
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", md, err))
			continue
		}
		for _, m := range testCiteRe.FindAllStringSubmatch(string(data), -1) {
			check(md, m[1])
		}
	}
	data, err := os.ReadFile(filepath.Join(root, ci))
	if err != nil {
		return append(out, fmt.Sprintf("%s: %v", ci, err))
	}
	for _, m := range runPatternRe.FindAllStringSubmatch(string(data), -1) {
		for _, name := range strings.Split(m[1], "|") {
			if name = strings.Trim(name, "^$"); name != "" {
				check(ci, name)
			}
		}
	}
	return out
}

// goFileRe matches a backticked Go file name or path in prose.
var goFileRe = regexp.MustCompile("`([A-Za-z0-9_./-]+\\.go)`")

// checkGoFiles reports every Go file the docs cite that does not exist.  A
// cited path containing "/" resolves from root; a bare name must be the name
// of some .go file under root, hidden directories aside.
func checkGoFiles(root string, docs []string) []string {
	names := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root:
			return filepath.SkipDir
		case strings.HasSuffix(path, ".go"):
			names[d.Name()] = true
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("walking %s: %v", root, err)}
	}
	var out []string
	for _, md := range docs {
		data, err := os.ReadFile(filepath.Join(root, md))
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", md, err))
			continue
		}
		reported := map[string]bool{}
		for _, m := range goFileRe.FindAllStringSubmatch(string(data), -1) {
			cited := m[1]
			found := names[cited]
			if strings.Contains(cited, "/") {
				_, err := os.Stat(filepath.Join(root, cited))
				found = err == nil
			}
			if !found && !reported[cited] {
				reported[cited] = true
				out = append(out, fmt.Sprintf("%s: cites %s, which does not exist", md, cited))
			}
		}
	}
	return out
}

var (
	// toolRunRe matches `go run ./cmd/<tool>` and the rest of its command
	// line, which ends at a closing backtick, a shell operator or a comment.
	toolRunRe = regexp.MustCompile("go run \\./cmd/([A-Za-z0-9_-]+)([^`|&;<>#\n]*)")
	// flagArgRe matches a -flag or --flag argument, capturing its name.
	flagArgRe = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][A-Za-z0-9_-]*)`)
	// flagDeclRe matches a flag declared through the flag package or a
	// FlagSet, capturing its name: flag.Bool("list", …) or
	// fs.StringVar(&out, "out", …).
	flagDeclRe = regexp.MustCompile(`\.(?:(?:Bool|Duration|Float64|Int|Int64|String|Uint|Uint64)(?:Var)?|BoolFunc|Func|TextVar|Var)\((?:[^,()"]+,\s*)?"([^"]+)"`)
)

// declaredFlags returns the flag names the non-test .go files in dir declare.
func declaredFlags(dir string) (map[string]bool, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err == nil && len(paths) == 0 {
		err = fmt.Errorf("%s has no Go sources", dir)
	}
	if err != nil {
		return nil, err
	}
	flags := map[string]bool{}
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for _, m := range flagDeclRe.FindAllSubmatch(data, -1) {
			flags[string(m[1])] = true
		}
	}
	return flags, nil
}

// checkToolFlags reports every flag that a `go run ./cmd/<tool>` command
// line in files passes and cmd/<tool> under root does not declare.
func checkToolFlags(root string, files []string) []string {
	tools := map[string]map[string]bool{} // tool -> declared flags, nil if unreadable
	var out []string
	for _, file := range files {
		data, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			out = append(out, fmt.Sprintf("%s: %v", file, err))
			continue
		}
		text := strings.ReplaceAll(string(data), "\\\n", " ")
		reported := map[string]bool{}
		for _, m := range toolRunRe.FindAllStringSubmatch(text, -1) {
			tool := m[1]
			flags, seen := tools[tool]
			if !seen {
				flags, err = declaredFlags(filepath.Join(root, "cmd", tool))
				if err != nil {
					out = append(out, fmt.Sprintf("%s: cites go run ./cmd/%s: %v", file, tool, err))
				}
				tools[tool] = flags
			}
			if flags == nil {
				continue
			}
			for _, f := range flagArgRe.FindAllStringSubmatch(m[2], -1) {
				if cited := tool + " -" + f[1]; !flags[f[1]] && !reported[cited] {
					reported[cited] = true
					out = append(out, fmt.Sprintf("%s: cites %s, which cmd/%s does not declare", file, cited, tool))
				}
			}
		}
	}
	return out
}
