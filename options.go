package endbox

import (
	"time"

	"endbox/mbox"
)

// Option configures a Deployment built with New. Options layer over the
// DeploymentOptions struct, so the two construction paths compose: an
// option is just a function mutating the struct.
type Option func(*DeploymentOptions)

// WithWireMode selects the data-channel protection: WireEncrypted (the
// enterprise default) or WireIntegrityOnly (the ISP opt-in, paper §IV-A).
func WithWireMode(m WireMode) Option {
	return func(o *DeploymentOptions) { o.Mode = m }
}

// WithEncryptedConfigs encrypts published configuration updates with the
// CA's shared key so only attested enclaves can read the rules (the
// enterprise scenario; the ISP scenario publishes plaintext).
func WithEncryptedConfigs() Option {
	return func(o *DeploymentOptions) { o.EncryptConfigs = true }
}

// WithServerUseCase attaches a server-side Click pipeline running the
// given use case — the OpenVPN+Click baseline the paper compares against.
func WithServerUseCase(u mbox.UseCase) Option {
	return func(o *DeploymentOptions) { o.ServerUseCase = u }
}

// WithClock sets the deployment-wide time source, letting tests and
// virtual-time experiments drive grace periods deterministically.
func WithClock(now func() time.Time) Option {
	return func(o *DeploymentOptions) { o.Clock = now }
}

// WithObserver installs the deployment's observer. Repeated use composes:
// every installed callback receives its event, in installation order.
func WithObserver(obs ObserverFuncs) Option {
	return func(o *DeploymentOptions) {
		prev := o.Observer
		o.Observer = ObserverFuncs{
			OnDelivered:   join2(prev.OnDelivered, obs.OnDelivered),
			OnReceived:    join2(prev.OnReceived, obs.OnReceived),
			OnAlert:       join2(prev.OnAlert, obs.OnAlert),
			OnEvicted:     join1(prev.OnEvicted, obs.OnEvicted),
			OnResumed:     join1(prev.OnResumed, obs.OnResumed),
			OnRefused:     join2(prev.OnRefused, obs.OnRefused),
			OnRevoked:     join2(prev.OnRevoked, obs.OnRevoked),
			OnFault:       join2(prev.OnFault, obs.OnFault),
			OnUpdateError: join3(prev.OnUpdateError, obs.OnUpdateError),
		}
	}
}

// join1, join2 and join3 chain two optional callbacks. A nil half drops
// out, so an event nobody observes stays a nil check on its hot path.
func join1[A any](f, g func(A)) func(A) {
	switch {
	case f == nil:
		return g
	case g == nil:
		return f
	}
	return func(a A) { f(a); g(a) }
}

func join2[A, B any](f, g func(A, B)) func(A, B) {
	switch {
	case f == nil:
		return g
	case g == nil:
		return f
	}
	return func(a A, b B) { f(a, b); g(a, b) }
}

func join3[A, B, C any](f, g func(A, B, C)) func(A, B, C) {
	switch {
	case f == nil:
		return g
	case g == nil:
		return f
	}
	return func(a A, b B, c C) { f(a, b, c); g(a, b, c) }
}

// WithTransport selects the transport carrying frames between the server
// and its clients (default: in-process direct calls).
func WithTransport(t Transport) Option {
	return func(o *DeploymentOptions) { o.Transport = t }
}

// WithShards sets the server session-table shard count. Session lookups
// and per-client statistics contend only within a shard, so frames from
// many clients proceed in parallel (the paper's §V scalability argument
// applied to the server's remaining work). The count rounds up to a power
// of two; the default (0) matches the CPU count; 1 reproduces the
// monolithic single-lock table as a baseline.
func WithShards(n int) Option {
	return func(o *DeploymentOptions) { o.Shards = n }
}

// WithUDPWorkers pipelines the UDP server's datagram ingress across n
// workers (the in-process transport ignores it). Each client is pinned to one worker by the same
// hash that places it in a table shard, preserving per-client frame
// ordering while different clients' frames proceed in parallel.
func WithUDPWorkers(n int) Option {
	return func(o *DeploymentOptions) { o.UDPWorkers = n }
}

// WithRetransmit tunes the control-path ARQ layer of the UDP transport
// (the in-process transport cannot lose messages and ignores it). Every
// control message rides the ARQ layer, with sensible default timers — use
// this option to tighten them for tests or widen them for high-latency
// links. Data-channel frames are never retransmitted: reliability is a
// control/configuration concern, and the zero-allocation data path is
// untouched. See docs/PROTOCOL.md for the ACK/retransmit state machines.
func WithRetransmit(cfg RetransmitConfig) Option {
	return func(o *DeploymentOptions) { o.Retransmit = cfg }
}

// WithLossProfile injects deterministic, seeded impairment — drops,
// duplicates, reorders, bit flips — into every control-path datagram the
// UDP transport sends, in both directions, each direction with its own
// seeded fault sequence. It exists so loss-tolerance tests
// are reproducible: the same seed impairs the same datagrams every run,
// and the ARQ layer (WithRetransmit) must recover. A zero profile impairs
// nothing. Data frames bypass the profile along with the ARQ layer.
func WithLossProfile(p LossProfile) Option {
	return func(o *DeploymentOptions) { o.LossProfile = p }
}

// WithFlowTable sizes every client enclave's flow-state table: capacity
// is the bound on concurrently tracked flows (past it the oldest-idle
// flow is evicted deterministically — a SYN flood recycles entries
// instead of growing the heap), ttl the idle timeout after which flows
// expire. Zero values keep the defaults (16384 flows, 2 minutes).
// ClientSpec.FlowCapacity/FlowTTL override per client.
func WithFlowTable(capacity int, ttl time.Duration) Option {
	return func(o *DeploymentOptions) {
		o.FlowCapacity = capacity
		o.FlowTTL = ttl
	}
}

// WithEchoNetwork makes the managed network reflect delivered packets back
// to the sending client (src/dst swapped, ICMP echoes answered) —
// modelling a server answering, used by latency measurements and demos.
func WithEchoNetwork() Option {
	return func(o *DeploymentOptions) { o.EchoNetwork = true }
}

// WithClientRouting relays packets addressed to another connected client's
// tunnel address, preserving the 0xeb processed flag (paper §IV-A
// client-to-client communication).
func WithClientRouting() Option {
	return func(o *DeploymentOptions) { o.RouteBetweenClients = true }
}

// WithSessionTTL enables liveness-driven session eviction: a client whose
// frames and keepalive answers stop arriving for ttl is swept, its VPN
// session torn down and its virtual-interface address reclaimed for reuse.
// A background sweeper runs every ttl/4 (override with WithSweepInterval).
// Zero disables eviction — sessions live until RemoveClient, the pre-v1
// behaviour. Evicted clients can reconnect (full handshake) or resume
// (Deployment.ResumeClient) at any time.
func WithSessionTTL(ttl time.Duration) Option {
	return func(o *DeploymentOptions) { o.SessionTTL = ttl }
}

// WithSweepInterval overrides the eviction sweeper's cadence (default
// SessionTTL/4). A negative interval disables the background goroutine so
// tests with fake clocks can drive Deployment.SweepSessions manually.
func WithSweepInterval(interval time.Duration) Option {
	return func(o *DeploymentOptions) { o.SweepInterval = interval }
}

// WithAdmission enables handshake admission control: a token bucket on
// handshake starts, a cap on concurrently in-flight handshakes, and a hard
// bound on total sessions — all enforced before any expensive asymmetric
// crypto runs, so a connect storm is refused cheaply instead of collapsing
// the server (typed errors ErrAdmissionThrottled / ErrServerFull). The
// zero config disables admission entirely; zero-valued fields within a
// non-zero config leave that particular limit unenforced.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(o *DeploymentOptions) { o.Admission = cfg }
}

// WithFailurePolicy tunes element fault containment: the number of
// recovered panics that quarantines an element (default 3) and whether a
// quarantined stage fails closed (drop, the default — an IDPS that cannot
// inspect must not forward) or open (bypass, for functions whose absence
// is safer than a blackhole, e.g. a NOP accounting stage). Containment
// itself is always on under this option.
func WithFailurePolicy(p FailurePolicy) Option {
	return func(o *DeploymentOptions) { o.FailurePolicy = p }
}

// WithoutContainment disables element fault containment entirely: an
// element panic propagates out of the enclave ecall and crashes the
// process, the pre-robustness behaviour. Meant for debugging pipelines
// under development, where a loud crash beats a quarantine.
func WithoutContainment() Option {
	return func(o *DeploymentOptions) { o.DisableContainment = true }
}

// WithPolicy attaches an attested-identity policy registry to the
// deployment: registered builds may enrol (Deployment.RegisterBuild names
// new ones), rollout selectors gain Measurements/MinBuild predicates
// resolved against the registry, and Policy.Revoke (or
// Deployment.RevokeBuild) propagates live — new handshakes and resumes
// from the revoked build are refused before any crypto, and its live
// sessions are evicted (ObserverFuncs.OnRevoked fires).
func WithPolicy(p *Policy) Option {
	return func(o *DeploymentOptions) { o.Policy = p }
}

// WithSealToMeasurement opts targeted rollouts into measurement-sealed
// update blobs: when a rollout's selector names exactly one measurement,
// the update is encrypted under that build's CA-derived key, making it
// cryptographically unopenable by every other build — clients of other
// builds fail with ErrSealedToOtherBuild and keep their last-known-good
// configuration.
func WithSealToMeasurement() Option {
	return func(o *DeploymentOptions) { o.SealToMeasurement = true }
}

// WithTicketTTL bounds the age of resumption tickets accepted by fast
// resume (see Deployment.ResumeClient). Zero accepts any ticket sealed
// under the server's in-memory ticket key — which a server restart
// discards, so tickets never outlive the process either way.
func WithTicketTTL(ttl time.Duration) Option {
	return func(o *DeploymentOptions) { o.TicketTTL = ttl }
}
