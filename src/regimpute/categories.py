"""The 16 primary industrial categories and their label aliases.

Categories follow the National Economic Industry Classification (1994).
The canonical label is the short ASCII symbol; ingestion also accepts the
English and Chinese category names.
"""

from __future__ import annotations

# Canonical order. Used everywhere a deterministic class order is needed
# (argmax tie-breaks, confusion matrix axes, report rows).
CATEGORIES: tuple[str, ...] = (
    "AFAHF",
    "EI",
    "M",
    "EGWPSI",
    "BI",
    "GPWC",
    "TSCS",
    "WRTC",
    "FI",
    "RE",
    "SS",
    "HSSW",
    "ECARFT",
    "SRTS",
    "GAPASO",
    "OI",
)

_ENGLISH = {
    "AFAHF": "Agriculture, forestry, animal husbandry and fishery",
    "EI": "Extractive industries",
    "M": "Manufacturing",
    "EGWPSI": "Electricity, gas and water production and supply industry",
    "BI": "Building industry",
    "GPWC": "Geological prospecting and water conservancy",
    "TSCS": "Transport, storage and communications sector",
    "WRTC": "Wholesale, retail trade and catering",
    "FI": "Finance, insurance",
    "RE": "Real estate",
    "SS": "Social services",
    "HSSW": "Health, sports and social welfare",
    "ECARFT": "Education, culture and arts, radio, film and television",
    "SRTS": "Scientific research and technical services",
    "GAPASO": "Government agencies, party agencies and social organizations",
    "OI": "Other industry",
}

_CHINESE = {
    "AFAHF": "农林牧渔业",
    "EI": "采掘业",
    "M": "制造业",
    "EGWPSI": "电力煤气及水的生产和供应业",
    "BI": "建筑业",
    "GPWC": "地质勘查业水利管理业",
    "TSCS": "交通运输仓储及邮电通信业",
    "WRTC": "批发和零售贸易餐饮业",
    "FI": "金融保险业",
    "RE": "房地产业",
    "SS": "社会服务业",
    "HSSW": "卫生体育和社会福利业",
    "ECARFT": "教育文化艺术及广播电影电视业",
    "SRTS": "科学研究和综合技术服务业",
    "GAPASO": "国家机关政党机关和社会团体",
    "OI": "其他行业",
}


def _squash(label: str) -> str:
    # Alias lookup ignores case, whitespace and list punctuation so that
    # e.g. "Finance, insurance" and "finance insurance" both resolve.
    return "".join(ch for ch in label.lower() if ch not in " ,、，.()/").strip()


_ALIASES: dict[str, str] = {}
for _sym in CATEGORIES:
    _ALIASES[_squash(_sym)] = _sym
    _ALIASES[_squash(_ENGLISH[_sym])] = _sym
    _ALIASES[_squash(_CHINESE[_sym])] = _sym


def normalize_category(label: str) -> str | None:
    """Resolve a raw category cell to its canonical symbol, or None."""
    return _ALIASES.get(_squash(label))
