package obs

import (
	"slices"
	"sort"

	"repro/internal/dot11"
)

// This file implements the paper's pseudonym-defeating extension: "Pang et
// al. demonstrate that many implicit identifiers such as network names in
// probing traffic may break those pseudonyms. Combined with their schemes,
// the digital Marauder's map can also track a victim in case pseudo-MAC
// addresses are used." A device that rotates its MAC still probes for the
// same remembered networks; the multiset of SSIDs it probes for is an
// implicit identifier that links its pseudonyms.

// Fingerprint is the implicit identifier of a device: the set of network
// names it probes for (its preferred-network list leaking on the air).
type Fingerprint struct {
	// SSIDs is the sorted set of non-wildcard SSIDs probed for.
	SSIDs []string `json:"ssids"`
}

// Jaccard returns the Jaccard similarity of two fingerprints' SSID sets
// (1 for identical, 0 for disjoint). Two empty fingerprints score 0: a
// device that only wildcard-probes carries no implicit identifier.
func (f Fingerprint) Jaccard(o Fingerprint) float64 {
	if len(f.SSIDs) == 0 && len(o.SSIDs) == 0 {
		return 0
	}
	set := make(map[string]bool, len(f.SSIDs))
	for _, s := range f.SSIDs {
		set[s] = true
	}
	inter := 0
	for _, s := range o.SSIDs {
		if set[s] {
			inter++
		}
	}
	union := len(f.SSIDs) + len(o.SSIDs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// recordProbeSSIDLocked notes a directed probe's SSID under the source
// MAC. Caller holds the shard write lock; the shard must be the source
// device's, so a device's whole fingerprint lives in one shard.
func (sh *shard) recordProbeSSIDLocked(src dot11.MAC, ssid string) {
	if ssid == "" {
		return // wildcard probe: no implicit identifier
	}
	if sh.probedSSIDs == nil {
		sh.probedSSIDs = make(map[dot11.MAC]map[string]bool)
	}
	if sh.probedSSIDs[src] == nil {
		sh.probedSSIDs[src] = make(map[string]bool)
	}
	sh.probedSSIDs[src][ssid] = true
}

// FingerprintOf returns the implicit identifier accumulated for a MAC.
func (s *Store) FingerprintOf(mac dot11.MAC) Fingerprint {
	sh := s.shardFor(mac)
	sh.mu.RLock()
	set := sh.probedSSIDs[mac]
	ssids := make([]string, 0, len(set))
	for ssid := range set {
		ssids = append(ssids, ssid)
	}
	sh.mu.RUnlock()
	sort.Strings(ssids)
	return Fingerprint{SSIDs: ssids}
}

// PseudonymLink is one inferred identity link between two MACs that are
// likely the same physical device under different pseudonyms.
type PseudonymLink struct {
	A          dot11.MAC `json:"a"`
	B          dot11.MAC `json:"b"`
	Similarity float64   `json:"similarity"`
}

// LinkPseudonyms compares the fingerprints of every pair of observed MACs
// and returns the pairs whose Jaccard similarity reaches the threshold,
// strongest first — the attack that keeps the Marauder's map working when
// devices randomize their MAC addresses.
func (s *Store) LinkPseudonyms(threshold float64) []PseudonymLink {
	var macs []dot11.MAC
	for _, sh := range s.shards {
		sh.mu.RLock()
		for m := range sh.probedSSIDs {
			macs = append(macs, m)
		}
		sh.mu.RUnlock()
	}
	slices.SortFunc(macs, compareMACs)

	var links []PseudonymLink
	for i := 0; i < len(macs); i++ {
		fi := s.FingerprintOf(macs[i])
		for j := i + 1; j < len(macs); j++ {
			sim := fi.Jaccard(s.FingerprintOf(macs[j]))
			if sim >= threshold {
				links = append(links, PseudonymLink{A: macs[i], B: macs[j], Similarity: sim})
			}
		}
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].Similarity != links[j].Similarity {
			return links[i].Similarity > links[j].Similarity
		}
		return macKey(links[i].A) < macKey(links[j].A)
	})
	return links
}
