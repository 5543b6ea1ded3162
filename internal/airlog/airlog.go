// Package airlog records and renders air-interface activity: every burst
// placed on the medium, annotated with its source, channel, timing, and —
// where a modem can decode it — frame contents. It gives experiments,
// tools, and users a pcap-like view of what happened on the MICS band
// during a scenario (Simulation.AttackTrace renders one).
package airlog

import (
	"fmt"
	"sort"
	"strings"

	"heartshield/internal/channel"
	"heartshield/internal/modem"
	"heartshield/internal/phy"
	"heartshield/internal/radio"
)

// Kind classifies a recorded burst.
type Kind string

// Burst classifications.
const (
	KindCommand  Kind = "command"
	KindResponse Kind = "response"
	KindJam      Kind = "jam"
	KindAntidote Kind = "antidote"
	KindCross    Kind = "cross-traffic"
	KindUnknown  Kind = "unknown"
)

// Entry is one recorded transmission.
type Entry struct {
	Seq      int
	Channel  int
	Start    int64
	Samples  int
	From     channel.AntennaID
	Kind     Kind
	PowerDBm float64
	// Frame is the decoded frame when the waveform carried one and the
	// log's modem could read it (clean-signal decode, not an over-the-air
	// observation).
	Frame *phy.Frame
	// Note is free-form annotation supplied by the recorder.
	Note string
}

// Names maps antenna IDs to display names.
type Names map[channel.AntennaID]string

// Log accumulates entries. The zero value is unusable; construct with New.
type Log struct {
	fsk   *modem.FSK
	fs    float64
	names Names
	items []Entry
}

// New creates a log that uses fsk (may be nil) to annotate decodable
// bursts and names (may be nil) to label antennas.
func New(fsk *modem.FSK, fs float64, names Names) *Log {
	return &Log{fsk: fsk, fs: fs, names: names}
}

// Record adds a burst with a classification and note. The IQ is analyzed
// for power and, for non-jam kinds, frame contents.
func (l *Log) Record(b *channel.Burst, kind Kind, note string) {
	e := Entry{
		Seq:      len(l.items),
		Channel:  b.Channel,
		Start:    b.Start,
		Samples:  len(b.IQ),
		From:     b.From,
		Kind:     kind,
		PowerDBm: radio.RSSIdBm(b.IQ),
		Note:     note,
	}
	if l.fsk != nil && kind != KindJam && kind != KindAntidote && kind != KindCross {
		if rx, ok := l.fsk.ReceiveFrame(b.IQ, 0.6); ok && rx.Frame != nil {
			e.Frame = rx.Frame
		}
	}
	l.items = append(l.items, e)
}

// RecordMedium snapshots every burst currently on the medium across all
// MICS channels, classifying by a caller-provided function.
func (l *Log) RecordMedium(m *channel.Medium, channels int, classify func(*channel.Burst) (Kind, string)) {
	for ch := 0; ch < channels; ch++ {
		for _, b := range m.Bursts(ch) {
			kind, note := KindUnknown, ""
			if classify != nil {
				kind, note = classify(b)
			}
			l.Record(b, kind, note)
		}
	}
}

// Entries returns the recorded entries sorted by start time.
func (l *Log) Entries() []Entry {
	out := append([]Entry(nil), l.items...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Len returns the number of recorded entries.
func (l *Log) Len() int { return len(l.items) }

// Reset clears the log.
func (l *Log) Reset() { l.items = l.items[:0] }

func (l *Log) name(id channel.AntennaID) string {
	if n, ok := l.names[id]; ok {
		return n
	}
	return fmt.Sprintf("ant%d", id)
}

// Timeline renders the log as a time-ordered trace, one line per burst.
func (l *Log) Timeline() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s %-9s %-3s %-12s %-12s %-9s %-12s %s\n",
		"#", "t(ms)", "ch", "from", "kind", "dBm", "dur(ms)", "detail")
	for _, e := range l.Entries() {
		detail := e.Note
		if e.Frame != nil {
			detail = fmt.Sprintf("%s serial=%s %s", e.Frame.Command, e.Frame.Serial, e.Note)
		}
		fmt.Fprintf(&b, "%-5d %-9.2f %-3d %-12s %-12s %-9.1f %-12.2f %s\n",
			e.Seq,
			float64(e.Start)/l.fs*1e3,
			e.Channel,
			l.name(e.From),
			e.Kind,
			e.PowerDBm,
			float64(e.Samples)/l.fs*1e3,
			strings.TrimSpace(detail))
	}
	return b.String()
}

// CountKind returns how many entries have the given kind.
func (l *Log) CountKind(k Kind) int {
	n := 0
	for _, e := range l.items {
		if e.Kind == k {
			n++
		}
	}
	return n
}
