//! Regional and National Internet Registries.

use core::fmt;
use core::str::FromStr;

/// The five Regional Internet Registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rir {
    /// AFRINIC — Africa.
    Afrinic,
    /// APNIC — Asia-Pacific.
    Apnic,
    /// ARIN — North America.
    Arin,
    /// LACNIC — Latin America and the Caribbean.
    Lacnic,
    /// RIPE NCC — Europe, Middle East, Central Asia.
    Ripe,
}

impl Rir {
    /// All five RIRs, in alphabetical order.
    pub const ALL: [Rir; 5] = [Rir::Afrinic, Rir::Apnic, Rir::Arin, Rir::Lacnic, Rir::Ripe];

    /// Canonical upper-case name as used in WHOIS `source:` fields.
    pub fn name(&self) -> &'static str {
        match self {
            Rir::Afrinic => "AFRINIC",
            Rir::Apnic => "APNIC",
            Rir::Arin => "ARIN",
            Rir::Lacnic => "LACNIC",
            Rir::Ripe => "RIPE",
        }
    }
}

impl fmt::Display for Rir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Rir {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "AFRINIC" => Ok(Rir::Afrinic),
            "APNIC" => Ok(Rir::Apnic),
            "ARIN" => Ok(Rir::Arin),
            "LACNIC" => Ok(Rir::Lacnic),
            "RIPE" | "RIPE NCC" | "RIPENCC" => Ok(Rir::Ripe),
            other => Err(format!("unknown RIR: {other:?}")),
        }
    }
}

/// The nine National Internet Registries (§B.1): seven under APNIC, two
/// under LACNIC. NIR direct delegations carry the same rights as RIR direct
/// delegations, including RPKI certificate issuance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Nir {
    /// JPNIC — Japan (APNIC). Bulk data omits allocation types (§4.2).
    Jpnic,
    /// TWNIC — Taiwan (APNIC).
    Twnic,
    /// KRNIC — Korea (APNIC).
    Krnic,
    /// CNNIC — China (APNIC).
    Cnnic,
    /// IRINN — India (APNIC). Issues ROAs on behalf of customers.
    Irinn,
    /// IDNIC — Indonesia (APNIC).
    Idnic,
    /// VNNIC — Vietnam (APNIC). Issues ROAs on behalf of customers.
    Vnnic,
    /// NIC.br — Brazil (LACNIC).
    NicBr,
    /// NIC.mx — Mexico (LACNIC); resource system integrated with LACNIC.
    NicMx,
}

impl Nir {
    /// All nine NIRs.
    pub const ALL: [Nir; 9] = [
        Nir::Jpnic,
        Nir::Twnic,
        Nir::Krnic,
        Nir::Cnnic,
        Nir::Irinn,
        Nir::Idnic,
        Nir::Vnnic,
        Nir::NicBr,
        Nir::NicMx,
    ];

    /// The parent RIR whose allocation-type vocabulary and policies apply.
    pub fn parent(&self) -> Rir {
        match self {
            Nir::Jpnic
            | Nir::Twnic
            | Nir::Krnic
            | Nir::Cnnic
            | Nir::Irinn
            | Nir::Idnic
            | Nir::Vnnic => Rir::Apnic,
            Nir::NicBr | Nir::NicMx => Rir::Lacnic,
        }
    }

    /// Canonical name as used in WHOIS `source:` fields.
    pub fn name(&self) -> &'static str {
        match self {
            Nir::Jpnic => "JPNIC",
            Nir::Twnic => "TWNIC",
            Nir::Krnic => "KRNIC",
            Nir::Cnnic => "CNNIC",
            Nir::Irinn => "IRINN",
            Nir::Idnic => "IDNIC",
            Nir::Vnnic => "VNNIC",
            Nir::NicBr => "NIC.BR",
            Nir::NicMx => "NIC.MX",
        }
    }

    /// Whether the NIR runs its own RPKI resource system (eight do; NIC.mx is
    /// integrated with LACNIC's, §5.3.2 footnote).
    pub fn runs_own_resource_system(&self) -> bool {
        !matches!(self, Nir::NicMx)
    }

    /// Whether the NIR lets customers issue their own certificates via child
    /// Resource Certificates (most do) or instead signs ROAs on their behalf
    /// (IRINN, VNNIC — §5.3.2 footnotes).
    pub fn delegates_certification(&self) -> bool {
        !matches!(self, Nir::Irinn | Nir::Vnnic)
    }
}

impl fmt::Display for Nir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Nir {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_uppercase().as_str() {
            "JPNIC" => Ok(Nir::Jpnic),
            "TWNIC" => Ok(Nir::Twnic),
            "KRNIC" => Ok(Nir::Krnic),
            "CNNIC" => Ok(Nir::Cnnic),
            "IRINN" => Ok(Nir::Irinn),
            "IDNIC" => Ok(Nir::Idnic),
            "VNNIC" => Ok(Nir::Vnnic),
            "NIC.BR" | "NICBR" => Ok(Nir::NicBr),
            "NIC.MX" | "NICMX" => Ok(Nir::NicMx),
            other => Err(format!("unknown NIR: {other:?}")),
        }
    }
}

/// The registry a WHOIS record came from: an RIR or an NIR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Registry {
    /// One of the five RIRs.
    Rir(Rir),
    /// One of the nine NIRs.
    Nir(Nir),
}

impl Registry {
    /// All fourteen registries: the five RIRs, then the nine NIRs, each in
    /// its own `ALL` order.
    pub const ALL: [Registry; 14] = [
        Registry::Rir(Rir::Afrinic),
        Registry::Rir(Rir::Apnic),
        Registry::Rir(Rir::Arin),
        Registry::Rir(Rir::Lacnic),
        Registry::Rir(Rir::Ripe),
        Registry::Nir(Nir::Jpnic),
        Registry::Nir(Nir::Twnic),
        Registry::Nir(Nir::Krnic),
        Registry::Nir(Nir::Cnnic),
        Registry::Nir(Nir::Irinn),
        Registry::Nir(Nir::Idnic),
        Registry::Nir(Nir::Vnnic),
        Registry::Nir(Nir::NicBr),
        Registry::Nir(Nir::NicMx),
    ];

    /// The registry's display name (`ARIN`, `NIC.BR`).
    pub fn name(&self) -> &'static str {
        match self {
            Registry::Rir(r) => r.name(),
            Registry::Nir(n) => n.name(),
        }
    }

    /// The RIR whose policy framework applies (the NIR's parent for NIRs).
    pub fn policy_rir(&self) -> Rir {
        match self {
            Registry::Rir(r) => *r,
            Registry::Nir(n) => n.parent(),
        }
    }

    /// Whether this registry hands out *direct* delegations in the paper's
    /// sense — both RIRs and NIRs do (§5.1: "direct delegations from NIRs
    /// have the same rights as those from RIRs").
    pub fn grants_direct_delegations(&self) -> bool {
        true
    }
}

impl fmt::Display for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Registry {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Ok(r) = s.parse::<Rir>() {
            return Ok(Registry::Rir(r));
        }
        if let Ok(n) = s.parse::<Nir>() {
            return Ok(Registry::Nir(n));
        }
        Err(format!("unknown registry: {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rir_round_trip() {
        for r in Rir::ALL {
            assert_eq!(r.name().parse::<Rir>().unwrap(), r);
        }
        assert_eq!("ripe ncc".parse::<Rir>().unwrap(), Rir::Ripe);
        assert!("XXNIC".parse::<Rir>().is_err());
    }

    #[test]
    fn nir_parents() {
        assert_eq!(Nir::Jpnic.parent(), Rir::Apnic);
        assert_eq!(Nir::NicBr.parent(), Rir::Lacnic);
        let apnic_nirs = Nir::ALL.iter().filter(|n| n.parent() == Rir::Apnic).count();
        assert_eq!(apnic_nirs, 7);
    }

    #[test]
    fn nir_rpki_models() {
        // Eight of nine run their own systems; NIC.mx is integrated.
        assert_eq!(
            Nir::ALL
                .iter()
                .filter(|n| n.runs_own_resource_system())
                .count(),
            8
        );
        // IRINN and VNNIC sign on behalf of customers.
        assert!(!Nir::Irinn.delegates_certification());
        assert!(!Nir::Vnnic.delegates_certification());
        assert!(Nir::Jpnic.delegates_certification());
    }

    #[test]
    fn registry_parse_and_policy() {
        let r: Registry = "TWNIC".parse().unwrap();
        assert_eq!(r, Registry::Nir(Nir::Twnic));
        assert_eq!(r.policy_rir(), Rir::Apnic);
        assert!(r.grants_direct_delegations());
        let r: Registry = "ARIN".parse().unwrap();
        assert_eq!(r.policy_rir(), Rir::Arin);
        assert!("nope".parse::<Registry>().is_err());
        // `ALL` lists every registry once, and each name parses back.
        for (i, r) in Registry::ALL.iter().enumerate() {
            assert_eq!(r.name().parse::<Registry>().unwrap(), *r);
            assert!(!Registry::ALL[..i].contains(r));
        }
    }
}
