package selfdrive

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"mb2/internal/plan"
	"mb2/internal/planner"
	"mb2/internal/workload"
)

// Load-curve names (Config.LoadCurve). Flat keeps per-session volume
// constant; diurnal modulates it sinusoidally over diurnalPeriod intervals;
// flash triples it for two intervals mid-run (the flash crowd the
// forecaster has never seen coming).
const (
	LoadFlat    = "flat"
	LoadDiurnal = "diurnal"
	LoadFlash   = "flash"
)

// diurnalPeriod is the drive's day length in intervals.
const diurnalPeriod = 8

// The customer-lookup share of a session's queries ramps from
// customerBaseShare by customerSharePerInterval up to customerMaxShare:
// the drift the forecaster picks up and the planner's index action
// exploits.
const (
	customerBaseShare        = 0.15
	customerSharePerInterval = 0.05
	customerMaxShare         = 0.7
)

// diurnal is the day curve's volume multiplier at interval i: a sinusoid
// around 0.6 that troughs near 0.1 and peaks at 1.1.
func diurnal(i int) float64 {
	return 0.6 + 0.5*math.Sin(2*math.Pi*float64(i)/float64(diurnalPeriod))
}

// variantSep separates a base template name from its synthetic variant
// ordinal ("customer_by_last#0042").
const variantSep = "#"

// scenarioBases is the exploder's base-template set, in the fixed order
// variant ordinals are distributed across.
var scenarioBases = [...]string{
	tmplOrdersPoint, tmplStockLevel, tmplCustomerByLast, tmplOrderlineScan,
}

// scenario is the run's workload: a template population, a load curve, and
// the one generator that draws session queries from them. With Templates
// <= 0 the population is the four base templates; otherwise the bases
// explode into Templates synthetic variants, each a structural
// near-duplicate of its base with deterministically perturbed cardinality
// estimates (so variant fingerprints differ but feature vectors stay
// close — the shape workload compression exists for).
//
// The repCache memoizes canonical (un-rewritten) representative plans; it
// is touched only from the loop thread (registration and forecast
// building), never from session workers.
type scenario struct {
	cfg      Config
	tpcc     workload.TPCC       // the loaded TPC-C, whose builders make the base templates
	scale    func(i int) float64 // the load curve: volume multiplier at interval i
	repCache map[string]plan.Node
}

// newScenario resolves the Config's load curve and template population.
func newScenario(cfg Config) (*scenario, error) {
	sc := &scenario{cfg: cfg, tpcc: workload.TPCC{CustomersPerDistrict: cfg.CustomersPerDistrict},
		repCache: make(map[string]plan.Node)}
	switch cfg.LoadCurve {
	case "", LoadFlat:
		sc.scale = func(int) float64 { return 1 }
	case LoadDiurnal:
		sc.scale = diurnal
	case LoadFlash:
		mid := cfg.Intervals / 2
		sc.scale = func(i int) float64 {
			if i == mid || i == mid+1 {
				return 3
			}
			return 1
		}
	default:
		return nil, fmt.Errorf("selfdrive: unknown load curve %q (want \"\", %q, %q or %q)",
			cfg.LoadCurve, LoadFlat, LoadDiurnal, LoadFlash)
	}
	return sc, nil
}

// exploded reports whether the synthetic-variant population is active.
func (sc *scenario) exploded() bool { return sc.cfg.Templates > 0 }

// variantsPerBase returns how many variants base index b carries: the
// population of Templates names is spread as evenly as possible across
// the four bases.
func (sc *scenario) variantsPerBase(b int) int {
	n := max(sc.cfg.Templates, len(scenarioBases))
	nv := n / len(scenarioBases)
	if b < n%len(scenarioBases) {
		nv++
	}
	return nv
}

// variantName renders a variant's template name.
func variantName(base string, ord int) string {
	return fmt.Sprintf("%s%s%04d", base, variantSep, ord)
}

// splitVariant parses a (possibly variant) template name into its base and
// ordinal (ordinal -1 for a plain base name).
func splitVariant(name string) (base string, ord int) {
	i := strings.LastIndex(name, variantSep)
	if i < 0 {
		return name, -1
	}
	n, err := strconv.Atoi(name[i+len(variantSep):])
	if err != nil {
		return name, -1
	}
	return name[:i], n
}

// variantFactor is a variant's deterministic cardinality perturbation in
// [1.0, 1.25): close enough that a variant clusters with its base under
// the default tolerance, far enough that fingerprints and feature vectors
// are all distinct.
func variantFactor(name string) float64 {
	return 1 + 0.25*float64(nameHash(name)%4096)/4096
}

// scaleEstimates returns a copy of the plan with every cardinality
// estimate scaled by f (covering the node kinds the drive templates use).
func scaleEstimates(n plan.Node, f float64) plan.Node {
	switch x := n.(type) {
	case *plan.SeqScanNode:
		cp := *x
		cp.Rows = est(x.Rows.Rows*f, x.Rows.Distinct*f)
		return &cp
	case *plan.IdxScanNode:
		cp := *x
		cp.Rows = est(x.Rows.Rows*f, x.Rows.Distinct*f)
		return &cp
	case *plan.AggNode:
		cp := *x
		cp.Rows = est(x.Rows.Rows*f, x.Rows.Distinct*f)
		cp.Child = scaleEstimates(x.Child, f)
		return &cp
	default:
		return n
	}
}

// orderlineRows estimates the analytic scan's matching rows: half the
// order-line table (10 districts x cpd*3/4 orders x ~10 lines).
func (sc *scenario) orderlineRows() float64 {
	return float64(sc.cfg.CustomersPerDistrict) * 10 * 3 / 4 * 10 / 2
}

// baseRep returns the canonical representative plan of a base template —
// the plan forecast-driven inference predicts with. Fixed constants keep
// each template's fingerprint stable across intervals, which is what makes
// the prediction cache effective; predictions depend on the cardinality
// estimates, not the literal values.
func (sc *scenario) baseRep(base string) plan.Node {
	switch base {
	case tmplOrdersPoint:
		return workload.OrdersPoint(0, 0, 0)
	case tmplStockLevel:
		return workload.StockLevel(0, 0, 0)
	case tmplCustomerByLast:
		return sc.tpcc.CustomerByLastScan(0, 0, 0)
	case tmplOrderlineScan:
		return orderlineScan(5, sc.orderlineRows())
	}
	return nil
}

// repFor returns a template's representative plan rewritten through the
// published indexes (nil for names outside the population). The canonical
// plan is cached; the index rewrite is applied per call since the
// published set grows over the run.
func (sc *scenario) repFor(name string, published []planner.IndexCandidate) plan.Node {
	rep, ok := sc.repCache[name]
	if !ok {
		base, ord := splitVariant(name)
		rep = sc.baseRep(base)
		if rep == nil {
			return nil
		}
		if ord >= 0 {
			rep = scaleEstimates(rep, variantFactor(name))
		}
		sc.repCache[name] = rep
	}
	return rewritePublished(rep, published)
}

// pickVariant draws a variant ordinal for a base: min-of-two draws skews
// volume toward low ordinals (a hot set), and from the run's middle
// interval on the hot set rotates half a population away — the mid-run
// skew shift the cluster shares must adapt to.
func (sc *scenario) pickVariant(rng *rand.Rand, baseIdx, interval int) int {
	nv := sc.variantsPerBase(baseIdx)
	if nv <= 1 {
		return 0
	}
	a, b := rng.Int63n(int64(nv)), rng.Int63n(int64(nv))
	ord := int(min(a, b))
	if interval >= sc.cfg.Intervals/2 {
		ord = (ord + nv/2) % nv
	}
	return ord
}

// intervalQueries returns the per-session query volume at interval i under
// the load curve (always >= 1).
func (sc *scenario) intervalQueries(i int) int {
	return max(int(math.Round(sc.scale(i)*float64(sc.cfg.QueriesPerSession))), 1)
}

// customerCount returns how many of a session's volume queries at interval
// i are customer lookups (the drifting share, rounded).
func customerCount(i, volume int) int {
	share := min(customerBaseShare+customerSharePerInterval*float64(i), customerMaxShare)
	return min(int(math.Round(share*float64(volume))), volume)
}

// sessionQueries builds one session's deterministic query list for an
// interval, drawn from the session's own stream (seed ^
// fold("drive/interval-i/session-s")): the load curve sets the volume, the
// ramping share of it are customer lookups, and the remainder cycles
// through order points, stock levels, and the analytic order-line scan. In
// an exploded population every query lands on a rng-drawn variant whose
// plan carries the variant's perturbed estimates (and the skew shift
// rotates the hot variants); the plain population draws nothing extra and
// names the base itself.
func (sc *scenario) sessionQueries(interval, session int, published []planner.IndexCandidate) []liveQuery {
	rng := rand.New(rand.NewSource(unitSeed(sc.cfg.Seed,
		fmt.Sprintf("drive/interval-%d/session-%d", interval, session))))
	cpd := sc.cfg.CustomersPerDistrict
	qn := sc.intervalQueries(interval)
	nCustomer := customerCount(interval, qn)
	out := make([]liveQuery, 0, qn)
	add := func(baseIdx int, node plan.Node) {
		name := scenarioBases[baseIdx]
		if sc.exploded() {
			name = variantName(name, sc.pickVariant(rng, baseIdx, interval))
			node = scaleEstimates(node, variantFactor(name))
		}
		node = rewritePublished(node, published)
		out = append(out, liveQuery{name: name, node: node})
	}
	for i := 0; i < qn; i++ {
		d := rng.Int63n(10)
		switch {
		case i < nCustomer:
			add(2, sc.tpcc.CustomerByLastScan(0, d, rng.Int63n(workload.TPCCLastNames)))
		case i%3 == 0:
			add(0, workload.OrdersPoint(0, d, rng.Int63n(int64(cpd))))
		case i%3 == 1:
			add(1, workload.StockLevel(0, d, rng.Int63n(int64(cpd*3/4))))
		default:
			add(3, orderlineScan(5, sc.orderlineRows()))
		}
	}
	return out
}
