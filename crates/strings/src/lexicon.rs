//! Word lists supporting the cleaning pipeline.
//!
//! The paper compiles these from the Wikipedia list of legal entity types by
//! country, ISO 3166, and the Wikipedia list of million-plus cities, with
//! manually added endonyms. Offline, we embed representative lists covering
//! the forms that actually appear in WHOIS data (and everything the
//! synthetic generator emits — the generator draws from these same lists, so
//! coverage is exact by construction, mirroring how the authors iterated
//! their lists against their corpus).

/// Legal entity endings (lowercased, punctuation already stripped).
pub const LEGAL_ENTITY_ENDINGS: &[&str] = &[
    // Anglosphere
    "inc",
    "incorporated",
    "llc",
    "llp",
    "lp",
    "ltd",
    "limited",
    "corp",
    "corporation",
    "co",
    "company",
    "plc",
    "pllc",
    "pc",
    "holdings",
    "group",
    "trust",
    // Europe
    "gmbh",
    "ag",
    "kg",
    "ug",
    "ev",
    "sarl",
    "sas",
    "sa",
    "snc",
    "bv",
    "nv",
    "ab",
    "as",
    "asa",
    "aps",
    "oy",
    "oyj",
    "spa",
    "srl",
    "sro",
    "zrt",
    "kft",
    "doo",
    "dd",
    "ad",
    "ooo",
    "oao",
    "zao",
    "pao",
    "sp",
    "spzoo",
    // Latin America
    "saa",
    "sac",
    "sacv",
    "sadecv",
    "ltda",
    "eirl",
    "cv",
    "sab",
    // Asia-Pacific
    "pte",
    "pty",
    "sdn",
    "bhd",
    "kk",
    "yk",
    "gk",
    "pvt",
    "pt",
    "tbk",
    "jsc",
    "psc",
];

/// Spelling variants mapped to a standard token.
pub const SPELLING_STANDARDIZATION: &[(&str, &str)] = &[
    ("centre", "center"),
    ("centres", "center"),
    ("centers", "center"),
    ("telecommunication", "telecom"),
    ("telecommunications", "telecom"),
    ("telecomunicaciones", "telecom"),
    ("telecomunicacoes", "telecom"),
    ("telecoms", "telecom"),
    ("technologies", "technology"),
    ("labs", "lab"),
    ("laboratories", "lab"),
    ("laboratory", "lab"),
    ("networks", "network"),
    ("communications", "communication"),
    ("comms", "communication"),
    ("univ", "university"),
    ("universidade", "university"),
    ("universidad", "university"),
    ("universitaet", "university"),
    ("organisation", "organization"),
    ("svcs", "services"),
    ("svc", "services"),
    ("intl", "international"),
];

/// Country names, frequent endonyms, and ISO 3166 short names (lowercased).
pub const GEO_COUNTRIES: &[&str] = &[
    "afghanistan",
    "albania",
    "algeria",
    "argentina",
    "armenia",
    "australia",
    "austria",
    "azerbaijan",
    "bangladesh",
    "belarus",
    "belgium",
    "bolivia",
    "brasil",
    "brazil",
    "bulgaria",
    "cambodia",
    "cameroon",
    "canada",
    "chile",
    "china",
    "colombia",
    "congo",
    "croatia",
    "cuba",
    "cyprus",
    "czechia",
    "denmark",
    "deutschland",
    "ecuador",
    "egypt",
    "espana",
    "estonia",
    "ethiopia",
    "finland",
    "france",
    "georgia",
    "germany",
    "ghana",
    "greece",
    "guatemala",
    "honduras",
    "hungary",
    "iceland",
    "india",
    "indonesia",
    "iran",
    "iraq",
    "ireland",
    "israel",
    "italia",
    "italy",
    "japan",
    "jordan",
    "kazakhstan",
    "kenya",
    "korea",
    "kuwait",
    "laos",
    "latvia",
    "lebanon",
    "libya",
    "lithuania",
    "luxembourg",
    "malaysia",
    "mexico",
    "moldova",
    "mongolia",
    "morocco",
    "mozambique",
    "myanmar",
    "nederland",
    "nepal",
    "netherlands",
    "nicaragua",
    "nigeria",
    "norway",
    "oman",
    "pakistan",
    "panama",
    "paraguay",
    "peru",
    "philippines",
    "polska",
    "poland",
    "portugal",
    "qatar",
    "romania",
    "russia",
    "rwanda",
    "senegal",
    "serbia",
    "singapore",
    "slovakia",
    "slovenia",
    "somalia",
    "spain",
    "sverige",
    "sweden",
    "switzerland",
    "syria",
    "taiwan",
    "tanzania",
    "thailand",
    "tunisia",
    "turkey",
    "turkiye",
    "uganda",
    "ukraine",
    "uruguay",
    "usa",
    "uzbekistan",
    "venezuela",
    "vietnam",
    "yemen",
    "zambia",
    "zimbabwe",
];

/// Large cities and common WHOIS locality tokens (lowercased).
pub const GEO_CITIES: &[&str] = &[
    "amsterdam",
    "ankara",
    "athens",
    "atlanta",
    "auckland",
    "baghdad",
    "bangkok",
    "barcelona",
    "beijing",
    "berlin",
    "bogota",
    "boston",
    "brussels",
    "bucharest",
    "budapest",
    "cairo",
    "caracas",
    "chengdu",
    "chicago",
    "copenhagen",
    "dallas",
    "delhi",
    "dhaka",
    "dubai",
    "dublin",
    "frankfurt",
    "guangzhou",
    "hamburg",
    "hanoi",
    "havana",
    "helsinki",
    "hongkong",
    "houston",
    "istanbul",
    "jakarta",
    "johannesburg",
    "karachi",
    "kyiv",
    "lagos",
    "lahore",
    "lima",
    "lisbon",
    "london",
    "madrid",
    "manila",
    "melbourne",
    "miami",
    "milan",
    "montreal",
    "moscow",
    "mumbai",
    "munich",
    "nagoya",
    "nairobi",
    "osaka",
    "oslo",
    "paris",
    "prague",
    "pyongyang",
    "quito",
    "riyadh",
    "rome",
    "santiago",
    "seattle",
    "seoul",
    "shanghai",
    "shenzhen",
    "singapore",
    "stockholm",
    "sydney",
    "taipei",
    "tehran",
    "tokyo",
    "toronto",
    "vienna",
    "warsaw",
    "wuhan",
    "yokohama",
    "zurich",
];

/// Generic remark phrases scrubbed during regex cleaning (lowercased
/// substrings).
pub const NOISE_PHRASES: &[&str] = &[
    "ip pool reserved for",
    "reserved for",
    "address block for",
    "static ip pool",
    "customer route",
    "see also",
    "further information",
];

/// Street-address indicator tokens: a token list ending in one of these with
/// a number nearby is an address fragment, not a name.
pub const STREET_TOKENS: &[&str] = &[
    "street",
    "str",
    "st",
    "avenue",
    "ave",
    "road",
    "rd",
    "blvd",
    "boulevard",
    "suite",
    "floor",
    "building",
    "bldg",
];

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// The legal entity endings as a set.
pub fn legal_endings() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| LEGAL_ENTITY_ENDINGS.iter().copied().collect())
}

/// The spelling standardization map.
pub fn spelling_map() -> &'static HashMap<&'static str, &'static str> {
    static MAP: OnceLock<HashMap<&'static str, &'static str>> = OnceLock::new();
    MAP.get_or_init(|| SPELLING_STANDARDIZATION.iter().copied().collect())
}

/// The street-address keywords as a set.
pub fn street_tokens() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| STREET_TOKENS.iter().copied().collect())
}

/// Countries and cities as one geographic set.
pub fn geo_terms() -> &'static HashSet<&'static str> {
    static SET: OnceLock<HashSet<&'static str>> = OnceLock::new();
    SET.get_or_init(|| {
        GEO_COUNTRIES
            .iter()
            .chain(GEO_CITIES.iter())
            .copied()
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lists_are_lowercase_and_nonempty() {
        for list in [
            LEGAL_ENTITY_ENDINGS,
            GEO_COUNTRIES,
            GEO_CITIES,
            STREET_TOKENS,
        ] {
            assert!(!list.is_empty());
            for w in list {
                assert_eq!(*w, w.to_lowercase(), "{w} must be lowercase");
                assert!(!w.contains(' '), "{w} must be a single token");
            }
        }
    }

    #[test]
    fn sets_are_queryable() {
        assert!(legal_endings().contains("llc"));
        assert!(legal_endings().contains("gmbh"));
        assert!(geo_terms().contains("japan"));
        assert!(geo_terms().contains("tokyo"));
        assert_eq!(spelling_map().get("centre"), Some(&"center"));
        assert!(street_tokens().contains("street"));
    }

    #[test]
    fn no_overlap_between_legal_and_geo() {
        // A token in both sets would make step ordering matter in surprising
        // ways; keep the lists disjoint.
        for w in LEGAL_ENTITY_ENDINGS {
            assert!(!geo_terms().contains(w), "{w} is both legal and geo");
        }
    }

    #[test]
    fn spelling_targets_are_not_sources() {
        let map = spelling_map();
        for (_, target) in SPELLING_STANDARDIZATION {
            assert!(
                !map.contains_key(target),
                "standardization must be idempotent, {target} maps again"
            );
        }
    }
}
