//! Windowed (divide-and-conquer) BitAlign.
//!
//! "Similar to GenASM, BitAlign also follows the divide-and-conquer
//! approach, where we divide the linearized subgraph and the query read
//! into overlapping windows and execute BitAlign for each window. After all
//! windows' traceback outputs are found, we merge them to find the final
//! traceback output." (Section 7)
//!
//! The hardware configuration processes `W = 128` bits per window and
//! commits `W - O = 80` pattern characters per window (Section 11.3: a
//! 10 kbp read takes 125 windows); GenASM uses `W = 64` committing 40.
//! Windowing is a heuristic: each window's alignment is locally optimal,
//! so the total distance is an upper bound on the exact distance — property
//! tests check it is exact for realistic error rates.

use segram_graph::{DnaSeq, LinearizedGraph};

use crate::{AlignError, Alignment, BitAlignConfig, BitAligner, Cigar, CigarOp, StartMode};

/// Configuration of windowed alignment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window size `W` in pattern characters (= bitvector width in the
    /// accelerator). The paper's BitAlign uses 128; GenASM uses 64.
    pub window: usize,
    /// Overlap `O`: only `W - O` pattern characters are committed per
    /// window. BitAlign commits 80 of 128 (`O = 48`); GenASM 40 of 64
    /// (`O = 24`).
    pub overlap: usize,
    /// Per-window edit threshold. The committed prefix of each window must
    /// be alignable within this budget.
    pub window_k: u32,
}

impl WindowConfig {
    /// The paper's BitAlign configuration: `W = 128`, `O = 48`.
    pub fn bitalign() -> Self {
        Self {
            window: 128,
            overlap: 48,
            window_k: 48,
        }
    }

    /// The GenASM configuration: `W = 64`, `O = 24`.
    pub fn genasm() -> Self {
        Self {
            window: 64,
            overlap: 24,
            window_k: 24,
        }
    }

    /// Pattern characters committed per window (`W - O`).
    pub fn stride(&self) -> usize {
        self.window - self.overlap
    }

    /// Number of windows needed for a pattern of `m` characters
    /// (`ceil(m / (W - O))`), the count used by the hardware cycle model.
    pub fn window_count(&self, m: usize) -> usize {
        m.div_ceil(self.stride())
    }

    fn validate(&self) -> Result<(), AlignError> {
        if self.window == 0 {
            return Err(AlignError::InvalidConfig {
                reason: "window size must be positive",
            });
        }
        if self.overlap >= self.window {
            return Err(AlignError::InvalidConfig {
                reason: "overlap must be smaller than the window",
            });
        }
        Ok(())
    }
}

impl Default for WindowConfig {
    fn default() -> Self {
        Self::bitalign()
    }
}

/// Aligns a long read against a linearized subgraph window by window.
///
/// The first window searches all start positions (seed-extension mode, or a
/// fixed anchor via `start`); every later window is anchored at the text
/// position where the previous window's committed prefix ended. Within each
/// window the full BitAlign machinery (bitvector generation + traceback)
/// runs on `W`-character slices, so memory stays bounded regardless of read
/// length — the property that lets the hardware use fixed scratchpads.
///
/// # Errors
///
/// Returns [`AlignError::WindowFailed`] when some window cannot be aligned
/// within `window_k` edits, and propagates empty-input errors.
///
/// # Examples
///
/// ```
/// use segram_align::{windowed_bitalign, StartMode, WindowConfig};
/// use segram_graph::LinearizedGraph;
///
/// let text: segram_graph::DnaSeq = "ACGT".repeat(100).parse()?;
/// let lin = LinearizedGraph::from_linear_seq(&text);
/// let read: segram_graph::DnaSeq = "ACGT".repeat(80).parse()?;
/// let a = windowed_bitalign(&lin, &read, WindowConfig::bitalign(), StartMode::Free)?;
/// assert_eq!(a.edit_distance, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn windowed_bitalign(
    lin: &LinearizedGraph,
    pattern: &DnaSeq,
    config: WindowConfig,
    start: StartMode,
) -> Result<Alignment, AlignError> {
    config.validate()?;
    if pattern.is_empty() {
        return Err(AlignError::EmptyPattern);
    }
    if lin.is_empty() {
        return Err(AlignError::EmptyText);
    }
    let m = pattern.len();
    if m <= config.window {
        // Single window: plain BitAlign.
        return BitAligner::new(
            lin,
            pattern,
            BitAlignConfig {
                k: config.window_k,
                start,
                ..BitAlignConfig::default()
            },
        )?
        .align();
    }

    let mut cigar = Cigar::new();
    let mut path: Vec<u32> = Vec::new();
    let mut q = 0usize; // pattern cursor
    let mut text_cursor: Option<usize> = match start {
        StartMode::Free => None,
        StartMode::Anchored(a) => Some(a),
    };
    let mut overall_start: Option<usize> = None;

    while q < m {
        let win_len = config.window.min(m - q);
        let last_window = q + win_len >= m;
        let commit_target = if last_window {
            win_len
        } else {
            config.stride().min(win_len)
        };
        let chunk = pattern.slice(q, q + win_len);
        let anchor = text_cursor.unwrap_or(0);
        if anchor >= lin.len() {
            // Ran off the reference: remaining pattern chars are insertions.
            cigar.push_run(CigarOp::Ins, (m - q) as u32);
            break;
        }
        // Anchored windows are built by path reachability so hops whose
        // landing sites lie far ahead in linear coordinates (e.g. across a
        // structural-variant branch) stay available; the free first window
        // searches the entire region.
        let reachable = text_cursor
            .map(|from| lin.reachable_window(from, win_len + config.window_k as usize + 1));
        let (window_lin, window_start) = match &reachable {
            Some((window, _)) => (window, StartMode::Anchored(0)),
            None => (lin, StartMode::Free),
        };
        let parent_of = |local: usize| -> usize {
            match &reachable {
                Some((_, to_parent)) => to_parent[local] as usize,
                None => local,
            }
        };
        let mut aligner = BitAligner::new(
            window_lin,
            &chunk,
            BitAlignConfig {
                k: config.window_k,
                start: window_start,
                ..BitAlignConfig::default()
            },
        )?;
        let window_alignment = aligner
            .align()
            .map_err(|_| AlignError::WindowFailed { pattern_pos: q })?;
        if overall_start.is_none() {
            overall_start = Some(parent_of(window_alignment.text_start));
        }

        // Commit the first `commit_target` pattern-consuming ops.
        let mut committed_pattern = 0usize;
        let mut path_cursor = 0usize;
        for op in window_alignment.cigar.ops() {
            if committed_pattern >= commit_target && op.consumes_read() {
                break;
            }
            cigar.push(op);
            if op.consumes_read() {
                committed_pattern += 1;
            }
            if op.consumes_ref() {
                let local = window_alignment.path[path_cursor] as usize;
                path.push(parent_of(local) as u32);
                path_cursor += 1;
            }
        }
        q += committed_pattern;
        // Where does the next window start in the text? At the first
        // reference character the *uncommitted* suffix of this window's
        // alignment consumed — this follows the chosen path across hops.
        let next_text = if path_cursor < window_alignment.path.len() {
            parent_of(window_alignment.path[path_cursor] as usize)
        } else {
            match path.last() {
                // No uncommitted reference consumption: continue at the
                // first successor of the last consumed character (the
                // backbone continuation when several exist).
                Some(&last) => lin
                    .successors(last as usize)
                    .first()
                    .map_or(lin.len(), |&s| s as usize),
                None => parent_of(window_alignment.text_start),
            }
        };
        text_cursor = Some(next_text);
        if committed_pattern == 0 {
            // No progress (pathological window): force an insertion to
            // guarantee termination.
            cigar.push(CigarOp::Ins);
            q += 1;
        }
    }

    let text_start = overall_start.unwrap_or(0);
    let text_end = path.last().map_or(text_start, |&p| p as usize + 1);
    Ok(Alignment {
        edit_distance: cigar.edit_count(),
        cigar,
        text_start: path.first().map_or(text_start, |&p| p as usize),
        text_end,
        path,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_dp::graph_dp_distance;

    fn linear(text: &str) -> LinearizedGraph {
        LinearizedGraph::from_linear_seq(&text.parse().unwrap())
    }

    #[test]
    fn window_count_matches_paper() {
        // Section 11.3: 10 kbp read -> 125 windows for BitAlign (stride 80)
        // and 250 windows for GenASM (stride 40).
        assert_eq!(WindowConfig::bitalign().window_count(10_000), 125);
        assert_eq!(WindowConfig::genasm().window_count(10_000), 250);
    }

    /// Deterministic non-periodic text so exact matches are unique.
    fn lcg_text(len: usize, seed: u64) -> String {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ['A', 'C', 'G', 'T'][(state >> 33) as usize % 4]
            })
            .collect()
    }

    #[test]
    fn exact_long_read_aligns_with_zero_edits() {
        let text = lcg_text(800, 7);
        let lin = linear(&text);
        let read: DnaSeq = text[160..160 + 500].parse().unwrap();
        let a = windowed_bitalign(&lin, &read, WindowConfig::bitalign(), StartMode::Free).unwrap();
        assert_eq!(a.edit_distance, 0);
        assert_eq!(a.text_start, 160);
        assert_eq!(a.cigar.read_len() as usize, 500);
    }

    #[test]
    fn scattered_errors_match_exact_dp() {
        // Plant isolated substitutions far apart; windowed must equal exact.
        let text = "ACGTTGCAGTCATGCA".repeat(40); // 640 chars
        let lin = linear(&text);
        let mut read_string = text[100..500].to_string();
        for pos in [50usize, 180, 333] {
            let replacement = if &read_string[pos..=pos] == "A" {
                "C"
            } else {
                "A"
            };
            read_string.replace_range(pos..=pos, replacement);
        }
        let read: DnaSeq = read_string.parse().unwrap();
        let (exact, _) = graph_dp_distance(&lin, &read, StartMode::Free).unwrap();
        let a = windowed_bitalign(&lin, &read, WindowConfig::bitalign(), StartMode::Free).unwrap();
        assert_eq!(a.edit_distance, exact);
        assert!(a.edit_distance <= 3);
    }

    #[test]
    fn windowed_distance_upper_bounds_exact() {
        let text = "ACGATTGCAGTTCAAGGCA".repeat(30);
        let lin = linear(&text);
        // A read with an indel and substitutions.
        let mut read_string = text[37..437].to_string();
        read_string.remove(100);
        read_string.insert(250, 'T');
        read_string.replace_range(10..11, "G");
        let read: DnaSeq = read_string.parse().unwrap();
        let (exact, _) = graph_dp_distance(&lin, &read, StartMode::Free).unwrap();
        let a = windowed_bitalign(&lin, &read, WindowConfig::bitalign(), StartMode::Free).unwrap();
        assert!(a.edit_distance >= exact);
        assert!(a.edit_distance <= exact + 2, "heuristic drift too large");
    }

    #[test]
    fn genasm_config_works_on_linear_text() {
        let text = "TGCATGCA".repeat(50);
        let lin = linear(&text);
        let read: DnaSeq = text[24..324].parse().unwrap();
        let a = windowed_bitalign(&lin, &read, WindowConfig::genasm(), StartMode::Free).unwrap();
        assert_eq!(a.edit_distance, 0);
    }

    #[test]
    fn short_pattern_falls_through_to_single_window() {
        let lin = linear("ACGTACGTACGT");
        let read: DnaSeq = "GTAC".parse().unwrap();
        let a = windowed_bitalign(&lin, &read, WindowConfig::bitalign(), StartMode::Free).unwrap();
        assert_eq!(a.edit_distance, 0);
        assert_eq!(a.text_start, 2);
    }

    #[test]
    fn invalid_config_rejected() {
        let lin = linear("ACGT");
        let read: DnaSeq = "AC".parse().unwrap();
        let bad = WindowConfig {
            window: 8,
            overlap: 8,
            window_k: 2,
        };
        assert!(matches!(
            windowed_bitalign(&lin, &read, bad, StartMode::Free),
            Err(AlignError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn cigar_replay_validates_windowed_traceback() {
        let text = "ACGTTGCAGTCA".repeat(60);
        let lin = linear(&text);
        let mut read_string = text[50..450].to_string();
        read_string.replace_range(200..201, if &text[250..251] == "A" { "C" } else { "A" });
        let read: DnaSeq = read_string.parse().unwrap();
        let a = windowed_bitalign(&lin, &read, WindowConfig::bitalign(), StartMode::Free).unwrap();
        let fragment = a.ref_fragment(&lin);
        assert!(
            a.cigar.replay(&fragment, read.as_slice()).is_some(),
            "windowed CIGAR must replay: {}",
            a.cigar
        );
    }
}
