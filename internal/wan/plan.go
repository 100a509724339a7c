package wan

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"chc/internal/plan"
)

// ParsePlan builds a Plan from a compact spec, mirroring the
// chaos/netfault grammars:
//
//	off                           no WAN model
//	<topology>                    a preset: 3-regions | us-eu-ap | star | clos
//	<topology>,key=value,...      a refined preset
//	key=value,...                 keys only (topology defaults to 3-regions)
//
// Keys:
//
//	topo=NAME       the topology preset (alternative to the leading token)
//	regions=N       region count override (us-eu-ap is fixed at 3)
//	delay=F         scale every base delay by F (e.g. 0.01 for fast tests)
//	jitter=F        per-delivery jitter fraction of base delay (default 0.2)
//	tail=P          heavy-tail probability per delivery
//	tailx=F         heavy-tail multiplier (default 8)
//	bw=RATE         per-link bandwidth: bytes/sec, with optional kb/mb/gb
//	                suffix (powers of 1024), or "inf" for unlimited
//	msg=N           nominal bytes charged per simulator message (default 512)
//	cut=F->T@LO-HI  one-way partition: hold F→T departures inside [LO,HI)
//	                until HI; F/T are region names or process IDs; repeatable
//	link=I->J:D[/RATE]  per-link base-delay (and bandwidth) override; repeatable
//
// "off" cannot be refined. String is the inverse of ParsePlan.
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	preset, settings, err := plan.Split(spec, func(s string) bool { _, ok := topologies[s]; return ok })
	if err != nil {
		return Plan{}, fmt.Errorf("wan: %w", err)
	}
	if preset == "off" {
		return p, nil
	}
	p.Topology = preset
	for _, kv := range settings {
		key, val := kv.Key, kv.Val
		switch key {
		case "topo":
			if _, ok := topologies[val]; !ok {
				return Plan{}, fmt.Errorf("wan: unknown topology %q (3-regions|us-eu-ap|star|clos)", val)
			}
			p.Topology = val
		case "regions":
			p.Regions, err = strconv.Atoi(val)
			if err != nil || p.Regions < 2 {
				return Plan{}, fmt.Errorf("wan: bad regions %q (want an integer >= 2)", val)
			}
		case "delay":
			p.DelayScale, err = strconv.ParseFloat(val, 64)
			if err != nil || p.DelayScale <= 0 {
				return Plan{}, fmt.Errorf("wan: bad delay scale %q (want a positive float)", val)
			}
		case "jitter":
			p.Jitter, err = parseFraction(val)
			if err != nil {
				return Plan{}, fmt.Errorf("wan: bad jitter %q: %w", val, err)
			}
			if p.Jitter == 0 {
				p.Jitter = -1 // explicit zero: distinguish from "use default"
			}
		case "tail":
			p.TailProb, err = parseFraction(val)
			if err != nil {
				return Plan{}, fmt.Errorf("wan: bad tail probability %q: %w", val, err)
			}
		case "tailx":
			p.TailMult, err = strconv.ParseFloat(val, 64)
			if err != nil || p.TailMult < 1 {
				return Plan{}, fmt.Errorf("wan: bad tail multiplier %q (want a float >= 1)", val)
			}
		case "bw":
			p.Bandwidth, err = parseRate(val)
			if err != nil {
				return Plan{}, fmt.Errorf("wan: bad bandwidth %q: %w", val, err)
			}
		case "msg":
			p.MsgBytes, err = strconv.Atoi(val)
			if err != nil || p.MsgBytes <= 0 {
				return Plan{}, fmt.Errorf("wan: bad msg bytes %q (want a positive integer)", val)
			}
		case "cut":
			cut, cerr := parseCut(val)
			if cerr != nil {
				return Plan{}, fmt.Errorf("wan: bad cut %q: %w", val, cerr)
			}
			p.Cuts = append(p.Cuts, cut)
		case "link":
			ov, lerr := parseLink(val)
			if lerr != nil {
				return Plan{}, fmt.Errorf("wan: bad link %q: %w", val, lerr)
			}
			p.Links = append(p.Links, ov)
		default:
			return Plan{}, fmt.Errorf("wan: unknown setting %q", key)
		}
	}
	if p.Topology == "" {
		p.Topology = "3-regions"
	}
	return p, nil
}

// parseFraction parses a probability/fraction in [0, 1].
func parseFraction(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil || v < 0 || v > 1 {
		return 0, fmt.Errorf("want a float in [0, 1]")
	}
	return v, nil
}

// parseRate parses a bandwidth: plain bytes/sec or kb/mb/gb suffixed
// (powers of 1024); "inf" means unlimited (negative sentinel in the Plan).
func parseRate(s string) (int64, error) {
	low := strings.ToLower(strings.TrimSpace(s))
	if low == "inf" || low == "unlimited" {
		return -1, nil
	}
	mult := int64(1)
	switch {
	case strings.HasSuffix(low, "kb"):
		mult, low = 1<<10, strings.TrimSuffix(low, "kb")
	case strings.HasSuffix(low, "mb"):
		mult, low = 1<<20, strings.TrimSuffix(low, "mb")
	case strings.HasSuffix(low, "gb"):
		mult, low = 1<<30, strings.TrimSuffix(low, "gb")
	}
	v, err := strconv.ParseFloat(low, 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("want a positive rate like 500kb, 32mb or 1000000")
	}
	return int64(v * float64(mult)), nil
}

// formatRate is the inverse of parseRate for exact power-of-1024 multiples.
func formatRate(v int64) string {
	if v < 0 {
		return "inf"
	}
	switch {
	case v >= 1<<30 && v%(1<<30) == 0:
		return fmt.Sprintf("%dgb", v>>30)
	case v >= 1<<20 && v%(1<<20) == 0:
		return fmt.Sprintf("%dmb", v>>20)
	case v >= 1<<10 && v%(1<<10) == 0:
		return fmt.Sprintf("%dkb", v>>10)
	}
	return strconv.FormatInt(v, 10)
}

// parseCut parses FROM->TO@LO-HI.
func parseCut(s string) (Cut, error) {
	pair, window, ok := strings.Cut(s, "@")
	if !ok {
		return Cut{}, fmt.Errorf("want FROM->TO@LO-HI")
	}
	from, to, ok := strings.Cut(pair, "->")
	if !ok || from == "" || to == "" {
		return Cut{}, fmt.Errorf("want FROM->TO@LO-HI")
	}
	lo, hi, ok := strings.Cut(window, "-")
	if !ok {
		return Cut{}, fmt.Errorf("want a window like 100ms-300ms")
	}
	start, err := time.ParseDuration(lo)
	if err != nil || start < 0 {
		return Cut{}, fmt.Errorf("bad window start %q", lo)
	}
	end, err := time.ParseDuration(hi)
	if err != nil || end <= start {
		return Cut{}, fmt.Errorf("bad window end %q (want end > start)", hi)
	}
	return Cut{From: from, To: to, Start: start, End: end}, nil
}

// parseLink parses I->J:DELAY[/RATE].
func parseLink(s string) (LinkOverride, error) {
	pair, rest, ok := strings.Cut(s, ":")
	if !ok {
		return LinkOverride{}, fmt.Errorf("want I->J:DELAY[/RATE]")
	}
	fromS, toS, ok := strings.Cut(pair, "->")
	if !ok {
		return LinkOverride{}, fmt.Errorf("want I->J:DELAY[/RATE]")
	}
	from, err := strconv.Atoi(fromS)
	if err != nil {
		return LinkOverride{}, fmt.Errorf("bad process %q", fromS)
	}
	to, err := strconv.Atoi(toS)
	if err != nil {
		return LinkOverride{}, fmt.Errorf("bad process %q", toS)
	}
	delayS, rateS, hasRate := strings.Cut(rest, "/")
	delay, err := time.ParseDuration(delayS)
	if err != nil || delay < 0 {
		return LinkOverride{}, fmt.Errorf("bad delay %q", delayS)
	}
	ov := LinkOverride{From: from, To: to, Delay: delay}
	if hasRate {
		ov.Bandwidth, err = parseRate(rateS)
		if err != nil {
			return LinkOverride{}, err
		}
	}
	return ov, nil
}

// String renders the plan in ParsePlan's grammar (its inverse).
func (p Plan) String() string {
	if !p.Enabled() {
		return "off"
	}
	parts := []string{p.Topology}
	if p.Regions > 0 {
		parts = append(parts, fmt.Sprintf("regions=%d", p.Regions))
	}
	if p.DelayScale > 0 && p.DelayScale != 1 {
		parts = append(parts, fmt.Sprintf("delay=%g", p.DelayScale))
	}
	if p.Jitter < 0 {
		parts = append(parts, "jitter=0")
	} else if p.Jitter > 0 {
		parts = append(parts, fmt.Sprintf("jitter=%g", p.Jitter))
	}
	if p.TailProb > 0 {
		parts = append(parts, fmt.Sprintf("tail=%g", p.TailProb))
	}
	if p.TailMult > 0 {
		parts = append(parts, fmt.Sprintf("tailx=%g", p.TailMult))
	}
	if p.Bandwidth != 0 {
		parts = append(parts, "bw="+formatRate(p.Bandwidth))
	}
	if p.MsgBytes > 0 {
		parts = append(parts, fmt.Sprintf("msg=%d", p.MsgBytes))
	}
	for _, c := range p.Cuts {
		parts = append(parts, fmt.Sprintf("cut=%s->%s@%s-%s", c.From, c.To, c.Start, c.End))
	}
	for _, ov := range p.Links {
		s := fmt.Sprintf("link=%d->%d:%s", ov.From, ov.To, ov.Delay)
		if ov.Bandwidth != 0 {
			s += "/" + formatRate(ov.Bandwidth)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, ",")
}
