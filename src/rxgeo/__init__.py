"""Geospatial classification and interrupted-time-series analysis of
prescription dispensing records.

The names below are imported from their module on first use (PEP 562), so a
CLI stage loads only the modules it runs: the reader stages never load the
model code in ``arima``, ``intervention`` and ``_optimize``, nor ``syngen``.
"""

import importlib

__version__ = "0.20.0"

_EXPORTS = {
    "records": ("FAMILIES", "FilterReport", "GeoPoint", "PrescriptionRecord",
                "TransactionTable", "clean", "mme_per_day", "parse_csv", "write_csv"),
    "geo": ("ALL_CLASS_CODES", "ClassCode", "ClassThresholds", "ClassifiedTable",
            "DisparityLabel", "RiskLevel", "TriangleGeometry", "class_code",
            "classify_records", "disparity", "distance_level", "geometry", "haversine",
            "risk_level"),
    "series": ("ClassSeries", "ClassSummaryRow", "MonthKey", "RecordTable",
               "aggregate_monthly", "pre_post_table", "split_pre_post", "summarize_classes"),
    "stats": ("MeanCI", "TestResult", "mean_ci", "one_way_anova", "pct_change",
              "t_test_greater"),
    "arima": ("ArimaFit", "ArimaOrders", "ArimaParams", "Forecast", "adf_test", "auto_fit",
              "css_objective", "difference", "fit", "forecast", "ljung_box",
              "select_differencing", "simulate", "tentative_orders"),
    "intervention": ("EventInput", "ItsResult", "event_regressor", "fit_arimax",
                     "its_analysis", "its_batch", "significance_stars"),
    "syngen": ("ClassProfile", "ScenarioConfig", "default_config", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, *_EXPORTS])


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
