package click

import (
	"errors"
	"fmt"
	"strings"

	"endbox/internal/idps"
	"endbox/internal/tlstap"
)

// ErrBadPipeline reports a middlebox pipeline or Click configuration that
// cannot be compiled into a runnable router: unknown element classes, bad
// element arguments, malformed graph syntax, or an empty/unknown use case.
// It is returned (wrapped) by Pipeline.Compile, ValidateConfig and — via
// the core deployment — AddClient, so misconfigurations surface as typed
// errors at the API boundary instead of failing inside the enclave.
var ErrBadPipeline = errors.New("click: bad pipeline")

// Stage is one element instance in a typed Pipeline. The zero Fanout (or
// 1) chains the stage linearly to its successor; a Fanout of n > 1 gives
// the stage n outputs, all wired to the next hop (the load-balancer
// shape), and is only allowed on the final stage.
type Stage struct {
	// Class is the Click element class, built-in or registered.
	Class string
	// Name is the instance name. Empty names get parser-assigned
	// anonymous names; stages with Fanout > 1 must be named so the
	// emitted configuration can reference their ports.
	Name string
	// Args are the element's configuration arguments, one clause per
	// entry (they are joined with ", " inside the parentheses).
	Args []string
	// Fanout is the number of outputs wired to the next hop (0/1 =
	// linear).
	Fanout int
}

// Pipeline is a typed, validated description of a middlebox function: an
// ordered chain of element stages between the implicit FromDevice entry
// and ToDevice exit. Build one with Chain (typed stages) or Raw (verbatim
// Click text); compile it to configuration text with Compile, which
// validates the whole graph — element classes, arguments, port wiring —
// against a registry and returns ErrBadPipeline-typed errors instead of
// letting a broken configuration fail inside an enclave.
//
// The zero Pipeline means "no pipeline specified" and is reported by
// Zero; an explicitly empty Chain() is the NOP pipeline (FromDevice
// wired straight to ToDevice).
type Pipeline struct {
	raw    string
	isRaw  bool
	stages []Stage
}

// Chain builds a pipeline from typed stages in order. Chain() with no
// stages is the NOP pipeline.
func Chain(stages ...Stage) Pipeline {
	if stages == nil {
		stages = []Stage{}
	}
	return Pipeline{stages: stages}
}

// Raw wraps verbatim Click configuration text as a pipeline. It still
// passes full validation at Compile time; use it for graph shapes the
// typed stages cannot express.
func Raw(config string) Pipeline {
	return Pipeline{raw: config, isRaw: true}
}

// Zero reports whether the pipeline is the unset zero value (as opposed
// to an explicit empty Chain, which is the NOP pipeline).
func (p Pipeline) Zero() bool {
	return !p.isRaw && p.raw == "" && p.stages == nil
}

// Config emits the pipeline as Click configuration text without building
// it. Most callers want Compile, which also validates against a registry.
func (p Pipeline) Config() (string, error) {
	if p.isRaw {
		if strings.TrimSpace(p.raw) == "" {
			return "", fmt.Errorf("%w: empty raw configuration", ErrBadPipeline)
		}
		return p.raw, nil
	}
	if p.Zero() {
		return "", fmt.Errorf("%w: no pipeline specified", ErrBadPipeline)
	}
	return emitStages(p.stages)
}

// Compile emits and fully validates the pipeline: the configuration is
// parsed and a complete router is built (elements instantiated and
// configured, ports wired) against reg (nil = DefaultRegistry) with the
// given rule sets available to IDS stages. On success it returns the
// configuration text ready for ClientOptions.ClickConfig or a
// config.Update; on failure the error wraps ErrBadPipeline.
func (p Pipeline) Compile(reg Resolver, ruleSets map[string]string) (string, error) {
	cfg, err := p.Config()
	if err != nil {
		return "", err
	}
	if err := ValidateConfig(cfg, reg, ruleSets); err != nil {
		return "", err
	}
	return cfg, nil
}

// emitStages renders typed stages as configuration text: a single linear
// chain statement, plus per-port connection statements when the final
// stage fans out.
func emitStages(stages []Stage) (string, error) {
	var b strings.Builder
	b.WriteString("FromDevice")
	var fan *Stage
	for i := range stages {
		s := &stages[i]
		if !validClassName(s.Class) {
			return "", fmt.Errorf("%w: stage %d has invalid element class %q", ErrBadPipeline, i, s.Class)
		}
		if s.Name != "" && !validClassName(s.Name) {
			return "", fmt.Errorf("%w: stage %d has invalid instance name %q", ErrBadPipeline, i, s.Name)
		}
		for _, arg := range s.Args {
			if !validArgText(arg) {
				return "", fmt.Errorf("%w: stage %d argument %q would split or escape the element's configuration (unbalanced parentheses/quotes or a top-level comma)", ErrBadPipeline, i, arg)
			}
		}
		if s.Fanout < 0 {
			return "", fmt.Errorf("%w: stage %d (%s) has invalid fan-out (need at least 2 outputs)", ErrBadPipeline, i, s.Class)
		}
		if s.Fanout > 1 {
			if i != len(stages)-1 {
				return "", fmt.Errorf("%w: fan-out stage %q must be the final stage", ErrBadPipeline, s.Class)
			}
			if s.Name == "" {
				return "", fmt.Errorf("%w: fan-out stage %q needs an instance name", ErrBadPipeline, s.Class)
			}
			fan = s
		}
		b.WriteString(" -> ")
		b.WriteString(stageText(s))
	}
	if fan == nil {
		b.WriteString(" -> ToDevice;")
		return b.String(), nil
	}
	b.WriteString(";\n")
	fmt.Fprintf(&b, "%s[0] -> td :: ToDevice;\n", fan.Name)
	for out := 1; out < fan.Fanout; out++ {
		fmt.Fprintf(&b, "%s[%d] -> td;\n", fan.Name, out)
	}
	return b.String(), nil
}

// validArgText reports whether a stage argument survives the round trip
// through the emitted configuration intact, under the lexer's rules
// (nested parentheses and double-quoted strings). An unbalanced ')' or
// an unclosed quote would terminate the configuration token early and
// splice the remainder into the graph; a top-level comma would be
// re-split by SplitArgs into two arguments the caller never passed — a
// typed stage must configure its element with exactly the Args given
// (commas inside quotes or parentheses are fine).
func validArgText(s string) bool {
	depth := 0
	inStr := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case inStr && c == '\\':
			i++
		case c == '"':
			inStr = !inStr
		case !inStr && c == '(':
			depth++
		case !inStr && c == ')':
			depth--
			if depth < 0 {
				return false
			}
		case !inStr && depth == 0 && c == ',':
			return false
		}
	}
	return depth == 0 && !inStr
}

// stageText renders one stage as "name :: Class(args)" with the optional
// parts omitted.
func stageText(s *Stage) string {
	var b strings.Builder
	if s.Name != "" {
		b.WriteString(s.Name)
		b.WriteString(" :: ")
	}
	b.WriteString(s.Class)
	if len(s.Args) > 0 {
		b.WriteString("(")
		b.WriteString(strings.Join(s.Args, ", "))
		b.WriteString(")")
	}
	return b.String()
}

// StockPipeline returns the typed pipeline reproducing one of the paper's
// five evaluation middlebox functions (§V-B), matching the paper's setups:
// the FW rules match no evaluation packet, the IDPS uses the community
// rule set (resolved via Context.RuleSet), and the DDoS splitter samples
// trusted time every 500,000 packets. Unknown use cases return the zero
// Pipeline.
func StockPipeline(u UseCase) Pipeline {
	switch u {
	case UseCaseNOP:
		return Chain()
	case UseCaseLB:
		return Chain(Stage{Name: "rr", Class: "RoundRobinSwitch", Fanout: 4})
	case UseCaseFW:
		return Chain(Stage{Name: "fw", Class: "IPFilter", Args: SplitArgs(FirewallRules(16))})
	case UseCaseIDPS:
		return Chain(Stage{Name: "ids", Class: "IDSMatcher", Args: []string{"RULESET community"}})
	case UseCaseDDoS:
		// The shaper is provisioned above the evaluation rate (as in the
		// paper, where measurement traffic is not throttled); the BURST
		// covers the interval between trusted-time samples.
		return Chain(
			Stage{Name: "ids", Class: "IDSMatcher", Args: []string{"RULESET community"}},
			Stage{Name: "shaper", Class: "TrustedSplitter",
				Args: []string{"RATE 10G", "BURST 4000000000", "SAMPLE 500000"}},
		)
	default:
		return Pipeline{}
	}
}

// ValidateConfig checks that cfg compiles into a runnable router: it is
// parsed and fully built — every element instantiated and configured, all
// ports wired — against reg (nil = DefaultRegistry), with the given rule
// sets resolvable by IDS elements and a scratch key table for TLSDecrypt.
// Errors wrap ErrBadPipeline. This is the validation AddClient and
// Rollout run before any configuration reaches an enclave.
func ValidateConfig(cfg string, reg Resolver, ruleSets map[string]string) error {
	g, err := ParseConfig(cfg)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadPipeline, err)
	}
	ctx := &Context{
		Keys: tlstap.NewKeyTable(),
		RuleSet: func(name string) (string, error) {
			if text, ok := ruleSets[name]; ok {
				return text, nil
			}
			// Scaled provider names ("generated:<n>[:<seed>]") resolve
			// without shipping the rule text in the update blob.
			if text, ok, err := idps.ResolveGenerated(name); ok {
				return text, err
			}
			return "", fmt.Errorf("unknown rule set %q", name)
		},
	}
	if _, err := BuildRouter(g, reg, ctx); err != nil {
		return fmt.Errorf("%w: %v", ErrBadPipeline, err)
	}
	return nil
}
