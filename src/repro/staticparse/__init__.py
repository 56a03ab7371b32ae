"""Static-pattern substrate: templates, the sampling miner, the matcher
that assigns lines to templates, the block parser that produces groups of
variable vectors, and the cross-block template warm-start cache."""

from .cache import TemplateCache, TemplateKey, template_key
from .matcher import TemplateMatcher
from .miner import TemplateMiner, mine_templates
from .parser import BlockParser, Group, ParsedBlock, ParseOutcome
from .template import VAR_MARK, Template

__all__ = [
    "Template",
    "VAR_MARK",
    "TemplateMatcher",
    "TemplateMiner",
    "mine_templates",
    "BlockParser",
    "Group",
    "ParsedBlock",
    "ParseOutcome",
    "TemplateCache",
    "TemplateKey",
    "template_key",
]
