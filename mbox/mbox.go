// Package mbox is the public middlebox-function API of EndBox: it opens
// the enclave's Click router to application-defined element classes and
// replaces stringly-typed configurations with typed, validated pipelines.
//
// EndBox's whole point is running arbitrary middlebox functions inside
// client enclaves (paper §IV); this package is how applications define
// them:
//
//   - Register plugs a custom element class into the process-wide
//     registry. Every enclave router — including ones already running —
//     resolves classes against it, so a hot-swap can deploy an element
//     registered after the client connected.
//   - Chain/Raw/Stock build Pipeline values: typed descriptions of the
//     element graph that compile to Click configuration text and are
//     fully validated (classes, arguments, port wiring) before anything
//     reaches an enclave. Misconfigurations surface as errors wrapping
//     ErrBadPipeline at AddClient/Rollout time.
//   - ElementStats/Alert are the per-element runtime surfaces: packets,
//     drops and alerts per element instance (Client.PipelineStats),
//     and structured alerts carrying the raising element's instance
//     name and class.
//
// A custom element embeds Base and implements the remaining Element
// methods:
//
//	type capper struct {
//	    mbox.Base
//	    limit, seen uint64
//	}
//
//	func (*capper) Class() string                               { return "Capper" }
//	func (c *capper) Configure(args []string, _ *mbox.Context) error { /* parse LIMIT */ return nil }
//	func (*capper) InPorts() int                                { return mbox.AnyPorts }
//	func (*capper) OutPorts() int                               { return 1 }
//	func (c *capper) Push(_ int, p *mbox.Packet) {
//	    if c.seen++; c.seen > c.limit {
//	        p.Drop(c.Name())
//	        return
//	    }
//	    c.Forward(0, p)
//	}
//
//	mbox.Register("Capper", func() mbox.Element { return &capper{} })
//	cli, err := d.AddClient(ctx, "laptop-1", endbox.ClientSpec{
//	    Mode:     endbox.ModeSimulation,
//	    Pipeline: mbox.Chain(mbox.Custom("Capper", "LIMIT 100")),
//	})
//
// # Registry ownership rules
//
// The registry is process-wide and append-only: a class, once registered,
// can be neither replaced nor removed, and built-in class names cannot be
// overridden. Registration is safe from any goroutine at any time —
// including while enclaves hot-swap configurations — and elements become
// usable the moment Register returns. Factories must return a fresh
// element per call: the router instantiates one element per instance per
// configuration, and a hot-swap builds a complete new set before the old
// one is retired. Element state that must survive a hot-swap travels via
// StateCarrier (the framework-maintained ElementStats counters survive
// automatically for elements that keep their name and class).
//
// See examples/customnf for a runnable walkthrough and DESIGN.md for the
// mbox → click compilation seam.
package mbox

import (
	"endbox/internal/click"
	"endbox/internal/flow"
)

// Element is the unit of composition: one middlebox processing step.
// Implementations embed Base (which supplies naming, wiring and runtime
// counters) and implement Class, Configure, InPorts, OutPorts and Push.
type Element = click.Element

// Base supplies naming, output wiring and the framework-maintained
// runtime counters; embed it in every element implementation.
type Base = click.Base

// Packet is the unit of processing flowing through the element graph.
type Packet = click.Packet

// Context supplies platform services (trusted time, rule sets, the TLS
// key table, the alert hook) to elements at Configure time. Inside an
// enclave the trusted services come from the enclave runtime.
type Context = click.Context

// Alert is a structured notification raised by a detection element,
// carrying the raising element's instance name and class.
type Alert = click.Alert

// ElementStats is one element instance's runtime counters: packets pushed
// into it, packets it dropped, alerts it raised. Read a client's
// per-element breakdown with Client.PipelineStats.
type ElementStats = click.ElementStats

// Factory creates one fresh, unconfigured element instance per call.
type Factory = click.Factory

// StateCarrier lets stateful elements survive configuration hot-swaps:
// when the new configuration contains an element with the same name and
// class, the router calls TakeState with the old instance.
type StateCarrier = click.StateCarrier

// AnyPorts marks an element whose port count adapts to its connections.
const AnyPorts = click.AnyPorts

// FlowContext is the flow-state service available to elements as
// Context.Flows: a capacity-bounded, TTL-expiring 5-tuple flow table.
// Custom stateful elements bind packets to flows with Base.TrackFlow and
// attach per-flow state through named slots (FlowContext.RegisterSlot);
// state lives in the table, so it survives configuration hot-swaps.
type FlowContext = flow.Context

// FlowEntry is one tracked flow: canonical 5-tuple key, per-direction
// packet/byte counters, and the per-element state slots.
type FlowEntry = flow.Entry

// FlowSlot indexes one element's per-flow state inside every FlowEntry.
type FlowSlot = flow.Slot

// FlowDir is a packet's direction relative to its flow's initiator.
type FlowDir = flow.Dir

// Packet directions relative to the flow initiator.
const (
	FlowFwd = flow.Fwd
	FlowRev = flow.Rev
)

// FlowStats is a snapshot of a flow table's counters (active flows,
// hit/insert/expiry/eviction totals), read per client via
// Client.FlowStats.
type FlowStats = flow.Stats

// FailurePolicy configures element fault containment for a pipeline:
// whether a panicking element is caught and counted, how many strikes
// quarantine it, and whether a quarantined stage fails closed (drops, the
// secure default) or open (is bypassed). Deployments enable containment
// by default; see endbox.WithFailurePolicy.
type FailurePolicy = click.FailurePolicy

// ElementFault is a containment event: an element panicked, and possibly
// tripped (or re-armed) its quarantine. Delivered through
// endbox.ObserverFuncs.OnFault.
type ElementFault = click.ElementFault

// Containment defaults: three strikes, thirty seconds quarantined.
const (
	DefaultTripThreshold = click.DefaultTripThreshold
	DefaultCooldown      = click.DefaultCooldown
)

// ErrBadPipeline is the typed error returned — from Compile, AddClient
// and Deployment.Rollout — for pipelines and configurations that cannot
// be compiled into a runnable router.
var ErrBadPipeline = click.ErrBadPipeline

// Register adds a custom element class to the process-wide registry. The
// name must be a valid Click identifier and must not collide with a
// built-in or previously registered class; the factory must produce a
// fresh element per call. Safe for concurrent use — including while
// clients hot-swap configurations.
func Register(class string, f Factory) error {
	return click.DefaultRegistry.Register(class, f)
}

// Registered returns every resolvable element class name, sorted —
// built-ins plus everything registered through Register.
func Registered() []string {
	return click.DefaultRegistry.Classes()
}
