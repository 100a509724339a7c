package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// TextSample is one parsed sample line of a Prometheus text exposition.
type TextSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ParseText is a strict parser for the subset of the Prometheus text format
// that WriteText emits. It exists so the exposition tests and the fuzz
// target can verify round-trips without external dependencies, and so
// chcsoak can read a remote daemon's histograms back off its /metrics
// endpoint.
func ParseText(r io.Reader) ([]TextSample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []TextSample
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if err := checkComment(text); err != nil {
				return nil, fmt.Errorf("line %d: %w", line, err)
			}
			continue
		}
		s, err := parseSampleLine(text)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

func checkComment(text string) error {
	fields := strings.SplitN(text, " ", 4)
	if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
		return fmt.Errorf("malformed comment %q", text)
	}
	if !validName(fields[2]) {
		return fmt.Errorf("invalid metric name %q", fields[2])
	}
	if fields[1] == "TYPE" {
		if len(fields) != 4 {
			return fmt.Errorf("malformed TYPE line %q", text)
		}
		switch MetricType(fields[3]) {
		case TypeCounter, TypeGauge, TypeHistogram:
		default:
			return fmt.Errorf("unknown metric type %q", fields[3])
		}
	}
	return nil
}

func parseSampleLine(text string) (TextSample, error) {
	s := TextSample{}
	rest := text
	// Metric name runs until '{' or ' '.
	end := strings.IndexAny(rest, "{ ")
	if end <= 0 {
		return s, fmt.Errorf("malformed sample %q", text)
	}
	s.Name = rest[:end]
	if !validName(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest = rest[end:]
	if rest[0] == '{' {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, fmt.Errorf("%w in %q", err, text)
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimLeft(rest, " ")
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", text)
	}
	// Value is the first field; an optional timestamp may follow.
	valStr := rest
	if sp := strings.IndexByte(rest, ' '); sp >= 0 {
		valStr = rest[:sp]
	}
	v, err := parseValue(valStr)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", valStr, text)
	}
	s.Value = v
	return s, nil
}

// parseLabels consumes a {k="v",...} block, returning the remainder.
func parseLabels(rest string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		if i >= len(rest) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if rest[i] == '}' {
			return labels, rest[i+1:], nil
		}
		if rest[i] == ',' {
			i++
			continue
		}
		eq := strings.IndexByte(rest[i:], '=')
		if eq <= 0 {
			return nil, "", fmt.Errorf("malformed label pair")
		}
		name := rest[i : i+eq]
		if !validName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		i += eq + 1
		if i >= len(rest) || rest[i] != '"' {
			return nil, "", fmt.Errorf("label value not quoted")
		}
		val, n, err := unescapeQuoted(rest[i:])
		if err != nil {
			return nil, "", err
		}
		labels[name] = val
		i += n
	}
}

// unescapeQuoted parses a leading quoted string with \\, \" and \n escapes,
// returning the value and the number of input bytes consumed.
func unescapeQuoted(s string) (string, int, error) {
	var b strings.Builder
	i := 1 // past opening quote
	for i < len(s) {
		c := s[i]
		switch c {
		case '"':
			return b.String(), i + 1, nil
		case '\\':
			if i+1 >= len(s) {
				return "", 0, fmt.Errorf("dangling escape")
			}
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			default:
				return "", 0, fmt.Errorf("unknown escape \\%c", s[i+1])
			}
			i += 2
		default:
			b.WriteByte(c)
			i++
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf", "Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
