"""Geospatial classification and interrupted-time-series analysis of
prescription dispensing records."""

__version__ = "0.10.0"

from .records import (FAMILIES, FilterReport, GeoPoint, PrescriptionRecord,
                      TransactionTable, clean, mme_per_day, parse_csv, write_csv)
from .geo import (ALL_CLASS_CODES, ClassCode, ClassThresholds, ClassifiedTable,
                  DisparityLabel, RiskLevel, TriangleGeometry, class_code,
                  classify_records, disparity, distance_level, geometry,
                  haversine, risk_level)
from .series import (ClassSeries, ClassSummaryRow, MonthKey, RecordTable,
                     aggregate_monthly, pre_post_table, split_pre_post,
                     summarize_classes)
from .stats import MeanCI, TestResult, mean_ci, one_way_anova, pct_change, t_test_greater
from .arima import (ArimaFit, ArimaOrders, ArimaParams, Forecast, adf_test,
                    auto_fit, css_objective, difference, fit, forecast,
                    ljung_box, select_differencing, simulate, tentative_orders)
from .intervention import (EventInput, ItsResult, event_regressor, fit_arimax,
                           its_analysis, its_batch, significance_stars)
from .syngen import ClassProfile, ScenarioConfig, default_config, generate

__all__ = [name for name in dir() if not name.startswith("_")]
