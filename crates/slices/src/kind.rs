//! The three slice types evaluated in the paper (§7.1).

use serde::{DeError, Deserialize, Serialize, Value};

/// The application class hosted by a slice.
///
/// The paper evaluates three slices, each hosting one mobile application with
/// a distinct dominant resource demand and performance metric:
///
/// * **MAR** — mobile augmented reality: 540p frames are uploaded to an edge
///   server for feature extraction and matching; delay-sensitive (500 ms
///   average round-trip latency).
/// * **HVS** — HD video streaming: a server streams 1080p video downlink;
///   bandwidth-hungry (30 FPS average).
/// * **RDC** — reliable distant control: IoT devices exchange 1-kbit control
///   messages; reliability-sensitive (99.999 % radio delivery).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SliceKind {
    /// Mobile augmented reality (delay-sensitive).
    Mar,
    /// HD video streaming (bandwidth-hungry).
    Hvs,
    /// Reliable distant control (reliability-sensitive).
    Rdc,
}

impl SliceKind {
    /// All slice kinds in the order the paper lists them.
    pub const ALL: [SliceKind; 3] = [SliceKind::Mar, SliceKind::Hvs, SliceKind::Rdc];

    /// Short human-readable name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            SliceKind::Mar => "MAR",
            SliceKind::Hvs => "HVS",
            SliceKind::Rdc => "RDC",
        }
    }

    /// Peak traffic rate used by the paper's testbed, in users per second
    /// (5 for MAR, 2 for HVS, 100 for RDC; §7.1).
    pub fn default_peak_users_per_second(self) -> f64 {
        match self {
            SliceKind::Mar => 5.0,
            SliceKind::Hvs => 2.0,
            SliceKind::Rdc => 100.0,
        }
    }

    /// Lowercase name used in scenario files and CLI arguments.
    pub fn lowercase_name(self) -> &'static str {
        match self {
            SliceKind::Mar => "mar",
            SliceKind::Hvs => "hvs",
            SliceKind::Rdc => "rdc",
        }
    }
}

impl std::fmt::Display for SliceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SliceKind {
    type Err = String;

    /// Parses a slice kind case-insensitively (`mar`, `MAR`, `Mar`, ...), so
    /// scenario JSON files and CLI arguments can name slice kinds in whatever
    /// case reads best.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "mar" => Ok(SliceKind::Mar),
            "hvs" => Ok(SliceKind::Hvs),
            "rdc" => Ok(SliceKind::Rdc),
            other => Err(format!(
                "unknown slice kind `{other}` (expected one of: mar, hvs, rdc)"
            )),
        }
    }
}

// Serialized as the lowercase alias (`"mar"`), accepted back in any case —
// hand-written instead of derived so that scenario files stay readable and
// historical `"Mar"`-style payloads still parse.
impl Serialize for SliceKind {
    fn serialize_value(&self) -> Value {
        Value::Str(self.lowercase_name().to_string())
    }
}

impl Deserialize for SliceKind {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let s = v
            .as_str()
            .ok_or_else(|| DeError::msg("expected a string for SliceKind"))?;
        s.parse().map_err(DeError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_each_kind_once() {
        assert_eq!(SliceKind::ALL.len(), 3);
        assert!(SliceKind::ALL.contains(&SliceKind::Mar));
        assert!(SliceKind::ALL.contains(&SliceKind::Hvs));
        assert!(SliceKind::ALL.contains(&SliceKind::Rdc));
    }

    #[test]
    fn names_are_the_paper_abbreviations() {
        assert_eq!(SliceKind::Mar.name(), "MAR");
        assert_eq!(SliceKind::Hvs.name(), "HVS");
        assert_eq!(SliceKind::Rdc.name(), "RDC");
        assert_eq!(format!("{}", SliceKind::Mar), "MAR");
    }

    #[test]
    fn peak_rates_match_the_paper() {
        assert_eq!(SliceKind::Mar.default_peak_users_per_second(), 5.0);
        assert_eq!(SliceKind::Hvs.default_peak_users_per_second(), 2.0);
        assert_eq!(SliceKind::Rdc.default_peak_users_per_second(), 100.0);
    }

    #[test]
    fn from_str_round_trips_display_and_lowercase_names() {
        for kind in SliceKind::ALL {
            assert_eq!(kind.name().parse::<SliceKind>().unwrap(), kind);
            assert_eq!(kind.lowercase_name().parse::<SliceKind>().unwrap(), kind);
            assert_eq!(kind.to_string().parse::<SliceKind>().unwrap(), kind);
        }
        assert_eq!("Mar".parse::<SliceKind>().unwrap(), SliceKind::Mar);
        assert!("edge".parse::<SliceKind>().is_err());
    }

    #[test]
    fn serde_uses_the_lowercase_alias_and_accepts_any_case() {
        for kind in SliceKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(json, format!("\"{}\"", kind.lowercase_name()));
            let back: SliceKind = serde_json::from_str(&json).unwrap();
            assert_eq!(back, kind);
        }
        // Historical payloads used the variant name verbatim.
        let legacy: SliceKind = serde_json::from_str("\"Mar\"").unwrap();
        assert_eq!(legacy, SliceKind::Mar);
        assert!(serde_json::from_str::<SliceKind>("\"urllc\"").is_err());
    }
}
